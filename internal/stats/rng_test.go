package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("same seed diverged at draw %d: %g vs %g", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincided on %d of 100 draws", same)
	}
}

func TestDeriveDeterministicAndIndependent(t *testing.T) {
	root := NewRNG(7)
	a1 := NewRNG(7).Derive(3)
	a2 := root.Derive(3)
	for i := 0; i < 50; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	// Different streams must differ from each other and the parent.
	b := NewRNG(7).Derive(4)
	c := NewRNG(7)
	differs := false
	for i := 0; i < 20; i++ {
		if b.Float64() != c.Float64() {
			differs = true
		}
	}
	if !differs {
		t.Fatal("derived stream tracks its parent")
	}
}

func TestDeriveNearbySeedsDecorrelated(t *testing.T) {
	// SplitMix64 mixing should make streams from adjacent labels disagree.
	root := NewRNG(100)
	s1 := root.Derive(1)
	s2 := root.Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Float64() == s2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent derived streams coincide on %d of 100 draws", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := NewRNG(123).Seed(); got != 123 {
		t.Fatalf("Seed() = %d, want 123", got)
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRNG(5)
	const rate = 2.0
	var sum Summary
	for i := 0; i < 200000; i++ {
		sum.Add(rng.Exponential(rate))
	}
	if got, want := sum.Mean(), 1/rate; math.Abs(got-want) > 0.01 {
		t.Fatalf("exponential mean = %g, want ≈ %g", got, want)
	}
	if sum.Min() < 0 {
		t.Fatalf("exponential produced negative value %g", sum.Min())
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(9)
	var sum Summary
	for i := 0; i < 200000; i++ {
		sum.Add(rng.Normal(10, 3))
	}
	if math.Abs(sum.Mean()-10) > 0.05 {
		t.Fatalf("normal mean = %g, want ≈ 10", sum.Mean())
	}
	if math.Abs(sum.StdDev()-3) > 0.05 {
		t.Fatalf("normal sd = %g, want ≈ 3", sum.StdDev())
	}
}

func TestBernoulli(t *testing.T) {
	rng := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if rng.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit rate %g", p)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := NewRNG(13)
	for _, mean := range []float64{0.5, 3, 40, 700} {
		var sum Summary
		for i := 0; i < 20000; i++ {
			sum.Add(float64(rng.Poisson(mean)))
		}
		if math.Abs(sum.Mean()-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%g) sample mean %g", mean, sum.Mean())
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	rng := NewRNG(17)
	if got := rng.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	if got := rng.Poisson(-1); got != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", got)
	}
	for i := 0; i < 1000; i++ {
		if rng.Poisson(600) < 0 {
			t.Fatal("Poisson normal approximation went negative")
		}
	}
}

func TestPermAndShuffle(t *testing.T) {
	rng := NewRNG(19)
	perm := rng.Perm(10)
	seen := make([]bool, 10)
	for _, v := range perm {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[v] = true
	}
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestIntnRange(t *testing.T) {
	rng := NewRNG(23)
	for i := 0; i < 1000; i++ {
		if v := rng.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

// TestLazySeedingMatchesEager: seeding on the first draw changes no stream.
// Every RNG built by NewRNG or Derive, at seeds around 0 and of both signs,
// draws exactly what a generator seeded eagerly from its source seed draws,
// through a mix of the samplers.
func TestLazySeedingMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 42, -987654321, math.MaxInt64, math.MinInt64} {
		derived := mix64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(5) + 1)
		for _, c := range []struct {
			name string
			lazy *RNG
			src  int64
		}{
			{"NewRNG", NewRNG(seed), mix64(uint64(seed))},
			{"Derive", NewRNG(seed).Derive(5), derived},
		} {
			eager := rand.New(rand.NewSource(c.src))
			for i := 0; i < 50; i++ {
				if got, want := c.lazy.Float64(), eager.Float64(); got != want {
					t.Fatalf("%s(%d) Float64 draw %d = %g, eager %g", c.name, seed, i, got, want)
				}
				if got, want := c.lazy.Intn(97), eager.Intn(97); got != want {
					t.Fatalf("%s(%d) Intn draw %d = %d, eager %d", c.name, seed, i, got, want)
				}
				if got, want := c.lazy.Exponential(2), eager.ExpFloat64()/2; got != want {
					t.Fatalf("%s(%d) Exponential draw %d = %g, eager %g", c.name, seed, i, got, want)
				}
			}
		}
	}
}

// TestDeriveSeedBuildsNoGenerator: an RNG that is only derived from, or
// whose Seed alone is read, never seeds a math/rand source; the two small
// RNG records are the only allocations.
func TestDeriveSeedBuildsNoGenerator(t *testing.T) {
	var seed int64
	allocs := testing.AllocsPerRun(100, func() {
		seed += NewRNG(seed).Derive(3).Seed()
	})
	if allocs > 2 {
		t.Fatalf("NewRNG(s).Derive(r).Seed() allocates %.0f objects, want at most the 2 RNG records", allocs)
	}
	if g := NewRNG(9).Derive(1); g.r != nil {
		t.Fatal("Derive seeded a generator before the first draw")
	}
}
