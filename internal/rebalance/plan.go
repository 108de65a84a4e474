package rebalance

import (
	"sort"

	"vodcluster/internal/anneal"
	"vodcluster/internal/demand"
)

// Move is one step of a migration plan: land a new replica of Video on
// Server (add) or remove a surplus one (evict).
type Move struct {
	Video  int
	Server int
	// Heat is the video's decayed demand count at planning time; adds
	// execute hottest-first so the copies the shifted workload needs most
	// land first under a tight bandwidth budget.
	Heat float64
	// attempts counts pump cycles the move has been deferred (pinned
	// sessions, storage waiting on an eviction); the executor abandons a
	// move that stalls too long rather than blocking the plan forever.
	attempts int
}

// Plan is an ordered migration plan: the diff between the layout being
// served and a re-annealed target. Adds come before evictions for the same
// video — a video's availability never dips below what it had — and the
// executor additionally orders adds hottest-first and keeps every step
// storage-feasible, waiting on a same-server eviction when the destination
// is full.
type Plan struct {
	Adds   []Move
	Evicts []Move
}

// Pending returns the number of moves not yet executed.
func (p *Plan) Pending() int { return len(p.Adds) + len(p.Evicts) }

// diffPlan builds the migration plan taking the live holder sets (by video)
// to the annealed layout (by rank). ranked maps rank → video and carries the
// heat ordering; maxMoves caps each move class per round. Evictions of a
// video whose adds were truncated by the cap are dropped too: evicting
// before every planned add has landed could shrink the video's replica set
// below both the old and the new layout.
func diffPlan(live [][]int, best *anneal.BitRateLayout, ranked []demand.Ranked, counts []float64, maxMoves int) *Plan {
	plan := &Plan{}
	truncated := make(map[int]bool)
	var adds, evicts []Move
	for rank, r := range ranked {
		v := r.Video
		inLive := make(map[int]bool, len(live[v]))
		for _, s := range live[v] {
			inLive[s] = true
		}
		best.EachCopy(rank, func(s int, _ int16) {
			if !inLive[s] {
				adds = append(adds, Move{Video: v, Server: s, Heat: counts[v]})
			}
		})
		for _, s := range live[v] {
			if best.Rate(rank, s) < 0 {
				evicts = append(evicts, Move{Video: v, Server: s, Heat: counts[v]})
			}
		}
	}
	// Hottest adds first; ties by video then server for determinism.
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].Heat != adds[j].Heat {
			return adds[i].Heat > adds[j].Heat
		}
		if adds[i].Video != adds[j].Video {
			return adds[i].Video < adds[j].Video
		}
		return adds[i].Server < adds[j].Server
	})
	if len(adds) > maxMoves {
		for _, m := range adds[maxMoves:] {
			truncated[m.Video] = true
		}
		adds = adds[:maxMoves]
	}
	// Coldest evictions first: free the storage the cold tail no longer
	// earns before touching warmer videos.
	sort.Slice(evicts, func(i, j int) bool {
		if evicts[i].Heat != evicts[j].Heat {
			return evicts[i].Heat < evicts[j].Heat
		}
		if evicts[i].Video != evicts[j].Video {
			return evicts[i].Video < evicts[j].Video
		}
		return evicts[i].Server < evicts[j].Server
	})
	kept := evicts[:0]
	for _, m := range evicts {
		if !truncated[m.Video] {
			kept = append(kept, m)
		}
	}
	if len(kept) > maxMoves {
		kept = kept[:maxMoves]
	}
	plan.Adds, plan.Evicts = adds, kept
	return plan
}

// hasEvictOn reports whether the plan still holds an eviction on server s —
// the signal a storage-blocked add waits on instead of being dropped.
func (p *Plan) hasEvictOn(s int) bool {
	for _, m := range p.Evicts {
		if m.Server == s {
			return true
		}
	}
	return false
}
