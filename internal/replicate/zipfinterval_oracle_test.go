package replicate

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// referenceAssignForParam is assignForParam as it was before the search went
// allocation-free: it copies the popularity vector and allocates the interval
// bounds (with zipf.Partition's arithmetic as it was, kept here so the
// reference shares no code with PartitionInto) and the replica vector on
// every call.
func referenceAssignForParam(p *core.Problem, u float64) []int {
	n := p.N()
	pop := p.Catalog.Popularities()
	m := len(pop)
	r := make([]int, m)
	if n == 1 {
		for i := range r {
			r[i] = 1
		}
		return r
	}
	top := pop[0] + pop[m-1]
	bounds := referencePartition(top, n, u)
	j := 1
	for i, pi := range pop {
		for j < n && pi <= bounds[j] {
			j++
		}
		r[i] = n - j + 1
	}
	return r
}

func referencePartition(total float64, n int, u float64) []float64 {
	weights := make([]float64, n)
	sum := 0.0
	for j := 0; j < n; j++ {
		weights[j] = math.Pow(float64(j+1), -u)
		sum += weights[j]
	}
	bounds := make([]float64, n+1)
	bounds[0] = total
	acc := 0.0
	for j := 0; j < n; j++ {
		acc += weights[j] / sum
		bounds[j+1] = total * (1 - acc)
	}
	bounds[n] = 0
	return bounds
}

// referenceSearchParam is searchParam as it was: every bisection step builds
// a whole replica vector with referenceAssignForParam and sums it.
func referenceSearchParam(p *core.Problem, budget int) float64 {
	m := float64(p.M())
	n := float64(p.N())
	hi := math.Log(m)/math.Log(n) + 1
	lo := -hi
	total := func(u float64) int {
		sum := 0
		for _, r := range referenceAssignForParam(p, u) {
			sum += r
		}
		return sum
	}
	for total(hi) < budget && hi < 1e6 {
		hi *= 2
	}
	for total(lo) > budget && lo > -1e6 {
		lo *= 2
	}
	if total(lo) > budget {
		return lo
	}
	eps := 1 / (m * m)
	for iter := 0; iter < 200 && hi-lo > eps; iter++ {
		mid := lo + (hi-lo)/2
		if total(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// requireZipfMatchesReference fails unless, for budget, the searched u is
// bit-identical to the reference's, Replicate returns the reference's vector
// for it, and AssignForParam agrees with the reference at a spread of u.
func requireZipfMatchesReference(t *testing.T, ctx string, p *core.Problem, budget int) {
	t.Helper()
	zr := ZipfInterval{}
	u, err := zr.Param(p, budget)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if want := referenceSearchParam(p, budget); math.Float64bits(u) != math.Float64bits(want) {
		t.Fatalf("%s: u = %.17g, reference %.17g", ctx, u, want)
	}
	got, err := zr.Replicate(p, budget)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if want := referenceAssignForParam(p, u); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Replicate differs from the reference vector at u = %g", ctx, u)
	}
	for _, x := range []float64{-40, -3, -0.5, 0, 0.25, 1, 2.5, 9, 40, u} {
		if got, want := zr.AssignForParam(p, x), referenceAssignForParam(p, x); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AssignForParam(%g) differs from the reference", ctx, x)
		}
	}
}

// TestZipfIntervalMatchesReference compares the allocation-free search with
// the allocating reference over random catalogs, cluster sizes (N = 1
// included), skews (uniform popularity included, where every video ties) and
// budgets from M to M·N; on a heterogeneous-storage cluster; and at the
// benchmark's plan_scale shape, M = 20 000 and N = 64 at degree 1.2.
func TestZipfIntervalMatchesReference(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(80)
		n := 1 + rng.Intn(16)
		theta := rng.Float64() * 1.2
		if trial%5 == 0 {
			theta = 0
		}
		p := makeProblem(t, m, n, theta, m)
		budget := m + rng.Intn(m*(n-1)+1)
		requireZipfMatchesReference(t, fmt.Sprintf("trial %d (M=%d N=%d θ=%.2f budget %d)", trial, m, n, theta, budget), p, budget)
	}

	het := makeProblem(t, 300, 6, 0.9, 300)
	size := het.Catalog[0].SizeBytes()
	het.ServerStorage = []float64{40 * size, 60 * size, 80 * size, 100 * size, 120 * size, 140 * size}
	if err := het.Validate(); err != nil {
		t.Fatal(err)
	}
	budget, err := het.TargetTotalReplicas(1.5)
	if err != nil {
		t.Fatal(err)
	}
	requireZipfMatchesReference(t, "heterogeneous storage", het, budget)

	const m, n = 20_000, 64
	scale := makeProblem(t, m, n, 0.75, (12*m/10+n-1)/n)
	if budget, err = scale.TargetTotalReplicas(1.2); err != nil {
		t.Fatal(err)
	}
	requireZipfMatchesReference(t, "plan_scale", scale, budget)
}
