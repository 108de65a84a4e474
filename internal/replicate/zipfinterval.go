package replicate

import (
	"math"

	"vodcluster/internal/core"
	"vodcluster/internal/zipf"
)

// ZipfInterval is the paper's time-efficient approximation to the optimal
// replication (§4.1.2). It partitions the popularity range [0, p_1 + p_M]
// into N intervals whose widths follow a Zipf-like law with parameter u
// (interval 1, the widest for u > 0, covering the highest popularities), and
// assigns every video in interval j the same replica count N − j + 1. The
// parameter u is found by binary search — the total number of replicas is
// non-decreasing in u (Lemma 4.1) — so the scheme saturates the replica
// budget as closely as the coarse interval granularity allows without ever
// exceeding it.
//
// Each bisection step classifies the whole catalog once, O(M), so a search
// of S steps costs O(S·M) with S ≈ log₂(range/δ) — about 35 steps at
// M = 20 000 — and allocates nothing: the steps only count Σ r_i, and the
// replica vector is built once, for the returned u. Replicate allocates a
// constant number of times whatever M and the step count.
type ZipfInterval struct{}

// Name implements Replicator.
func (ZipfInterval) Name() string { return "zipf" }

// Replicate implements Replicator.
func (ZipfInterval) Replicate(p *core.Problem, totalReplicas int) ([]int, error) {
	if err := checkBudget(p, totalReplicas); err != nil {
		return nil, err
	}
	r := assignForParam(p, searchParam(p, totalReplicas))
	if err := validateVector(p, r, totalReplicas); err != nil {
		return nil, err
	}
	return r, nil
}

// Param exposes the binary-searched skew parameter u for a given budget, for
// inspection and tests of Lemma 4.1.
func (ZipfInterval) Param(p *core.Problem, totalReplicas int) (float64, error) {
	if err := checkBudget(p, totalReplicas); err != nil {
		return 0, err
	}
	return searchParam(p, totalReplicas), nil
}

// AssignForParam returns the replica vector produced by interval parameter u
// directly, without budget search. Exported for tests of the monotonicity
// lemma.
func (ZipfInterval) AssignForParam(p *core.Problem, u float64) []int {
	return assignForParam(p, u)
}

// assignForParam returns the replica vector interval parameter u produces.
func assignForParam(p *core.Problem, u float64) []int {
	r := make([]int, p.M())
	intervalReplicas(p, u, make([]float64, p.N()+1), r)
	return r
}

// intervalReplicas classifies each video's popularity into one of N
// Zipf(u)-skewed intervals of [0, p_1 + p_M] and maps interval index j
// (1-based from the top) to N − j + 1 replicas. It returns Σ r_i and, when r
// is non-nil, stores each r_i in it. bounds is scratch for the N + 1
// interval boundaries; nothing is allocated.
func intervalReplicas(p *core.Problem, u float64, bounds []float64, r []int) int {
	n, m := p.N(), p.M()
	if n == 1 {
		for i := range r {
			r[i] = 1
		}
		return m
	}
	c := p.Catalog
	zipf.PartitionInto(bounds, c[0].Popularity+c[m-1].Popularity, u) // bounds[0]=top ≥ … ≥ bounds[n]=0
	sum, j := 0, 1
	for i := range c { // popularities are non-increasing, so j only advances
		pi := c[i].Popularity
		for j < n && pi <= bounds[j] {
			j++
		}
		ri := n - j + 1
		sum += ri
		if r != nil {
			r[i] = ri
		}
	}
	return sum
}

// searchParam binary-searches the largest u whose assignment stays within the
// budget. The paper bounds the search space by u_max = log M / log N (all
// videos land in the first interval and get N replicas) and a symmetric lower
// bound where all videos get one replica; we start from those bounds and
// widen them defensively if the extremes are not yet saturated, then iterate
// until the interval is below the paper's termination granularity
// δ ≈ p_M − p_M·M/(M+1) (≈ M^−2 at θ = 1), with a hard cap of 200 iterations.
func searchParam(p *core.Problem, budget int) float64 {
	m := float64(p.M())
	n := float64(p.N())
	hi := math.Log(m)/math.Log(n) + 1
	lo := -hi
	bounds := make([]float64, p.N()+1)
	total := func(u float64) int { return intervalReplicas(p, u, bounds, nil) }
	for total(hi) < budget && hi < 1e6 {
		hi *= 2
	}
	for total(lo) > budget && lo > -1e6 {
		lo *= 2
	}
	if total(lo) > budget {
		return lo // budget == M is always reachable; defensive fallback
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

var _ Replicator = ZipfInterval{}
