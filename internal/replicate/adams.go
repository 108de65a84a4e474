package replicate

import (
	"fmt"

	"vodcluster/internal/apportion"
	"vodcluster/internal/core"
)

// BoundedAdams is the paper's optimal replication algorithm (§4.1.1): start
// with one replica per video, then repeatedly duplicate the video whose
// replicas currently carry the greatest communication weight, skipping videos
// that already have N replicas, until the replica budget is exhausted.
//
// This is Adams' monotone divisor apportionment bounded by the server count;
// Theorem 4.1 states it minimizes the maximum per-replica communication
// weight (Eq. 8) among all vectors with Σ r_i equal to the budget and
// r_i ≤ N. The first replica of every video is handed out in one O(M) pass
// and one heapify orders the rest, so the heap-based implementation runs in
// O(M + K log M) for K duplications — within the paper's O(M·N·C·log M)
// worst case when the budget saturates cluster storage.
type BoundedAdams struct{}

// Name implements Replicator.
func (BoundedAdams) Name() string { return "adams" }

// Replicate implements Replicator.
func (BoundedAdams) Replicate(p *core.Problem, totalReplicas int) ([]int, error) {
	if err := checkBudget(p, totalReplicas); err != nil {
		return nil, err
	}
	caps := make([]int, p.M())
	for i := range caps {
		caps[i] = p.N()
	}
	r, err := apportion.BoundedDivisor(p.Catalog.Popularities(), totalReplicas, apportion.Adams, caps)
	if err != nil {
		return nil, fmt.Errorf("replicate: adams: %w", err)
	}
	if err := validateVector(p, r, totalReplicas); err != nil {
		return nil, err
	}
	return r, nil
}

// BruteForceOptimal exhaustively searches all feasible replica vectors with
// Σ r_i == totalReplicas and returns one minimizing the maximum per-replica
// weight. It exists to verify Theorem 4.1 in tests and is exponential in M;
// callers must keep M and N tiny.
func BruteForceOptimal(p *core.Problem, totalReplicas int) ([]int, float64, error) {
	if err := checkBudget(p, totalReplicas); err != nil {
		return nil, 0, err
	}
	m, n := p.M(), p.N()
	best := []int(nil)
	bestVal := 0.0
	cur := make([]int, m)
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == m {
			if left != 0 {
				return
			}
			v := MaxWeight(p, cur)
			if best == nil || v < bestVal {
				best = append([]int(nil), cur...)
				bestVal = v
			}
			return
		}
		remaining := m - i - 1 // later videos need ≥1 each
		for r := 1; r <= n && left-r >= remaining; r++ {
			cur[i] = r
			rec(i+1, left-r)
		}
	}
	rec(0, totalReplicas)
	if best == nil {
		return nil, 0, fmt.Errorf("replicate: no feasible vector for budget %d", totalReplicas)
	}
	return best, bestVal, nil
}
