package place

import (
	"fmt"
	"slices"

	"vodcluster/internal/core"
)

// SmallestLoadFirst is the paper's Algorithm 1. Replicas are arranged in
// groups per video and the groups sorted by communication weight,
// non-increasing. Placement proceeds in rounds of N: each round takes the N
// heaviest unplaced replicas and gives exactly one to each server — the
// heaviest replica to the least-loaded server that does not already hold
// that video (and has storage room), the next to the least-loaded remaining
// server, and so on. Giving each server one replica per round keeps storage
// use perfectly even, and weight-ordered rounds yield the tight imbalance
// bound of Theorem 4.2: L_Eq3 ≤ max_i w_i − min_i w_i.
//
// When the least-loaded remaining server already holds the video, the replica
// moves to the next-smallest load (the v4² step in the paper's Figure 3).
// If every remaining server in the round holds the video, a same-round swap
// repairs the conflict; placement fails only if the instance itself is
// infeasible.
type SmallestLoadFirst struct{}

// Name implements Placer.
func (SmallestLoadFirst) Name() string { return "slf" }

// Place implements Placer.
func (SmallestLoadFirst) Place(p *core.Problem, replicas []int) (*core.Layout, error) {
	if err := checkReplicaVector(p, replicas); err != nil {
		return nil, err
	}
	refs := sortedReplicas(p, replicas)
	st := newState(p, replicas)
	n := p.N()
	free, done := make([]int, n), make([]roundAssignment, 0, n)
	for start := 0; start < len(refs); start += n {
		end := start + n
		if end > len(refs) {
			end = len(refs)
		}
		if err := placeRound(st, refs[start:end], free, done); err != nil {
			return nil, err
		}
	}
	if err := st.layout.Validate(p); err != nil {
		return nil, fmt.Errorf("place: slf produced invalid layout: %w", err)
	}
	return st.layout, nil
}

// roundAssignment records one placement within the current round so a later
// conflict can swap with it.
type roundAssignment struct {
	server int
	video  int
	weight float64
}

// placeRound distributes the given replicas (already weight-ordered), one per
// server, smallest load first. free and done are scratch of capacity N that
// the caller reuses across rounds.
func placeRound(st *state, round []replicaRef, free []int, done []roundAssignment) error {
	free = free[:0]
	for i := 0; i < st.p.N(); i++ {
		free = append(free, i)
	}
	done = done[:0]

	takeFree := func(idx int) int {
		sv := free[idx]
		free = append(free[:idx], free[idx+1:]...)
		return sv
	}

	// Order the free servers by (load, index): smallest load first. The
	// order is total and a server's load cannot change while it is free, so
	// taking servers out keeps the list sorted; only the conflict path below
	// touches free servers' loads and asks for a re-sort.
	sorted := false
	for _, ref := range round {
		if !sorted {
			slices.SortFunc(free, func(a, b int) int {
				if la, lb := st.loads[a], st.loads[b]; la != lb {
					if la < lb {
						return -1
					}
					return 1
				}
				return a - b
			})
			sorted = true
		}
		placed := false
		for idx := range free {
			if st.canHost(free[idx], ref.video) {
				sv := takeFree(idx)
				if err := st.assign(sv, ref.video, ref.weight); err != nil {
					return err
				}
				done = append(done, roundAssignment{server: sv, video: ref.video, weight: ref.weight})
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		// Conflict: every remaining server either holds ref.video or (on
		// heterogeneous clusters) is out of storage. First try a same-round
		// swap — find (sv1, v1) where sv1 can host ref.video and some free
		// server can host v1 — and as a last resort relocate an existing
		// replica from an earlier round to make room.
		sorted = false
		moved, err := swapRepair(st, &free, done, ref)
		if err != nil {
			sf := st.relocateFor(ref.video)
			if sf == -1 {
				return err
			}
			if err := st.assign(sf, ref.video, ref.weight); err != nil {
				return err
			}
			for idx, sv := range free {
				if sv == sf {
					free = append(free[:idx], free[idx+1:]...)
					break
				}
			}
			moved = roundAssignment{server: sf, video: ref.video, weight: ref.weight}
		}
		done = append(done, moved)
	}
	return nil
}

// swapRepair relocates an earlier same-round assignment to a free server and
// places ref on the vacated server. It returns the new assignment for ref.
func swapRepair(st *state, free *[]int, done []roundAssignment, ref replicaRef) (roundAssignment, error) {
	for di := len(done) - 1; di >= 0; di-- {
		prev := done[di]
		if prev.video == ref.video {
			continue
		}
		// The vacated server must be able to host ref.video.
		if st.layout.Holds(ref.video, prev.server) {
			continue
		}
		for idx, sv2 := range *free {
			if !st.canHost(sv2, prev.video) {
				continue
			}
			// Move prev.video from prev.server to sv2, then place ref on
			// prev.server.
			st.unassign(prev.server, prev.video, prev.weight)
			if err := st.assign(sv2, prev.video, prev.weight); err != nil {
				return roundAssignment{}, err
			}
			if !st.canHost(prev.server, ref.video) {
				// Rare storage edge with heterogeneous sizes: undo and keep
				// searching.
				st.unassign(sv2, prev.video, prev.weight)
				if err := st.assign(prev.server, prev.video, prev.weight); err != nil {
					return roundAssignment{}, err
				}
				continue
			}
			if err := st.assign(prev.server, ref.video, ref.weight); err != nil {
				return roundAssignment{}, err
			}
			*free = append((*free)[:idx], (*free)[idx+1:]...)
			return roundAssignment{server: prev.server, video: ref.video, weight: ref.weight}, nil
		}
	}
	return roundAssignment{}, fmt.Errorf("place: slf cannot place a replica of video %d: all feasible servers already hold it", ref.video)
}

var _ Placer = SmallestLoadFirst{}

// TheoremBound returns the Theorem 4.2 upper bound on the Eq. 3 load
// imbalance degree achieved by smallest-load-first placement: the difference
// between the greatest and smallest per-replica communication weights.
//
// The paper's telescoping proof assumes every round places exactly N
// replicas, i.e. the total replica count is a multiple of N (storage fully
// saturated, the setting of §4.1). When the final round is partial, the
// spread can additionally grow by that round's largest weight; GeneralBound
// covers that case. Both bounds were verified empirically over tens of
// thousands of random instances.
func TheoremBound(p *core.Problem, replicas []int) float64 {
	peak := p.PeakRequests()
	first := true
	var min, max float64
	for v, r := range replicas {
		if r <= 0 {
			continue
		}
		w := p.Catalog[v].Popularity * peak / float64(r)
		if first {
			min, max = w, w
			first = false
			continue
		}
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return max - min
}

// GeneralBound extends TheoremBound to replica totals that are not a
// multiple of N: the final, partial round can widen the load spread by at
// most its own largest communication weight, which is added to the full-round
// bound.
func GeneralBound(p *core.Problem, replicas []int) float64 {
	bound := TheoremBound(p, replicas)
	total := 0
	for _, r := range replicas {
		total += r
	}
	n := p.N()
	if n == 0 || total%n == 0 {
		return bound
	}
	refs := sortedReplicas(p, replicas)
	lastRoundStart := (total / n) * n
	if lastRoundStart < len(refs) {
		bound += refs[lastRoundStart].weight
	}
	return bound
}
