// Package stats provides deterministic random-number utilities and summary
// statistics used throughout the VoD cluster simulator.
//
// All stochastic components in this repository draw from an explicitly seeded
// *RNG so that every simulation run is reproducible bit-for-bit. Independent
// substreams (e.g. one per simulation replication) are derived with Derive,
// which mixes the parent seed with a stream label using SplitMix64 so that
// nearby seeds do not produce correlated streams.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded source of randomness. It wraps math/rand.Rand and adds the
// distribution samplers the simulator needs. The generator is seeded on the
// first draw, not at construction: a math/rand source is about 5 KB of state
// seeded in a loop, and many RNGs — a root that only derives, a stream whose
// Seed alone is read — never draw. RNG is not safe for concurrent use; derive
// one RNG per goroutine instead.
type RNG struct {
	seed int64
	src  int64      // the math/rand source seed
	r    *rand.Rand // nil until the first draw
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, src: mix64(uint64(seed))}
}

// rand returns the generator, seeding it on first use.
func (g *RNG) rand() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.src))
	}
	return g.r
}

// Seed returns the seed this RNG was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Derive returns a new independent RNG for the given stream label.
// Deriving the same (seed, stream) pair always yields the same stream.
func (g *RNG) Derive(stream int64) *RNG {
	mixed := mix64(uint64(g.seed)*0x9E3779B97F4A7C15 + uint64(stream) + 1)
	return &RNG{seed: int64(mixed), src: int64(mixed & math.MaxInt64)}
}

// mix64 is the SplitMix64 finalizer; it decorrelates sequential seeds.
func mix64(z uint64) int64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & math.MaxInt64)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.rand().Float64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.rand().Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.rand().Int63() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.rand().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.rand().Shuffle(n, swap) }

// Exponential returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential rate must be positive")
	}
	return g.rand().ExpFloat64() / rate
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.rand().NormFloat64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.rand().Float64() < p }

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 500.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		n := int(math.Round(g.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.rand().Float64()
		if p <= l {
			return k
		}
		k++
	}
}
