// Package replicate implements the paper's video replication algorithms:
// deciding how many replicas r_i each video receives so that the maximum
// per-replica communication weight max_i p_i·λ·T/r_i is minimized (paper
// Eq. 8) under a total replica budget, with 1 ≤ r_i ≤ N (Eq. 7).
//
// Three algorithms from the paper are provided, plus a uniform baseline:
//
//   - BoundedAdams — the optimal bounded Adams monotone divisor replication
//     (§4.1.1, Theorem 4.1);
//   - ZipfInterval — the approximation that classifies popularities into N
//     Zipf-skewed intervals (§4.1.2), binary-searching the skew in O(M) per
//     step (about 35 steps at M = 20 000) without allocating per step;
//   - Classification — the straightforward rank-class baseline the
//     evaluation compares against (§5, citing the authors' earlier work);
//   - Uniform — round-robin replication, optimal only for uniform
//     popularities.
package replicate

import (
	"fmt"

	"vodcluster/internal/core"
)

// Replicator computes a replica-count vector for a problem under a total
// replica budget.
type Replicator interface {
	// Replicate returns r with len(r) == p.M(), Σ r_i ≤ totalReplicas,
	// and 1 ≤ r_i ≤ p.N() for every i. Implementations aim to use the
	// whole budget; ZipfInterval may fall slightly short by design.
	Replicate(p *core.Problem, totalReplicas int) ([]int, error)
	// Name identifies the algorithm in reports.
	Name() string
}

// checkBudget validates the common preconditions of every replicator.
func checkBudget(p *core.Problem, totalReplicas int) error {
	m, n := p.M(), p.N()
	if m == 0 {
		return fmt.Errorf("replicate: empty catalog")
	}
	if totalReplicas < m {
		return fmt.Errorf("replicate: budget %d below one replica per video (M=%d)", totalReplicas, m)
	}
	if totalReplicas > m*n {
		return fmt.Errorf("replicate: budget %d exceeds M·N = %d (Eq. 7 caps replicas at N per video)", totalReplicas, m*n)
	}
	return nil
}

// MaxWeight returns the replication objective value (Eq. 8) of a replica
// vector: the largest per-replica communication weight. Lower is better.
func MaxWeight(p *core.Problem, replicas []int) float64 {
	peak := p.PeakRequests()
	max := 0.0
	for i, r := range replicas {
		if r <= 0 {
			continue
		}
		if w := p.Catalog[i].Popularity * peak / float64(r); w > max {
			max = w
		}
	}
	return max
}

// validateVector checks the invariants promised by Replicate.
func validateVector(p *core.Problem, replicas []int, budget int) error {
	if len(replicas) != p.M() {
		return fmt.Errorf("replicate: vector has %d entries for %d videos", len(replicas), p.M())
	}
	total := 0
	for i, r := range replicas {
		if r < 1 || r > p.N() {
			return fmt.Errorf("replicate: video %d gets %d replicas; want 1..%d", i, r, p.N())
		}
		total += r
	}
	if total > budget {
		return fmt.Errorf("replicate: produced %d replicas over budget %d", total, budget)
	}
	return nil
}
