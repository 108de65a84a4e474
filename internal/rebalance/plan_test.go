package rebalance

import (
	"testing"

	"vodcluster/internal/anneal"
	"vodcluster/internal/demand"
)

// TestDiffPlanOrderingAndTruncation pins the plan semantics: adds sorted
// hottest-first and capped, evictions of truncated videos dropped so a
// video's availability never dips mid-plan, evictions coldest-first.
func TestDiffPlanOrderingAndTruncation(t *testing.T) {
	// 3 videos, 3 servers. Empirical heat: video 2 hottest, then 0, then 1.
	counts := []float64{10, 2, 50}
	ranked := []demand.Ranked{{Video: 2, Pop: 0.5}, {Video: 0, Pop: 0.3}, {Video: 1, Pop: 0.2}}
	live := [][]int{
		0: {0, 1}, // target keeps only server 0 -> evict on 1
		1: {1},    // target unchanged
		2: {0},    // target wants {0,1,2} -> adds on 1 and 2
	}
	best := anneal.NewBitRateLayout(3, 3)
	best.SetRate(0, 0, 0) // rank 0 = video 2
	best.SetRate(0, 1, 0)
	best.SetRate(0, 2, 0)
	best.SetRate(1, 0, 0) // rank 1 = video 0
	best.SetRate(2, 1, 0) // rank 2 = video 1

	plan := diffPlan(live, best, ranked, counts, 8)
	if len(plan.Adds) != 2 || len(plan.Evicts) != 1 {
		t.Fatalf("plan = %d adds, %d evicts; want 2, 1", len(plan.Adds), len(plan.Evicts))
	}
	for _, a := range plan.Adds {
		if a.Video != 2 {
			t.Fatalf("add for video %d; only video 2 gains replicas", a.Video)
		}
	}
	if plan.Adds[0].Server != 1 || plan.Adds[1].Server != 2 {
		t.Fatalf("adds out of deterministic order: %+v", plan.Adds)
	}
	if plan.Evicts[0].Video != 0 || plan.Evicts[0].Server != 1 {
		t.Fatalf("evict = %+v; want video 0 off server 1", plan.Evicts[0])
	}

	// Cap 1: only the hottest add survives, and the truncation drops video
	// 2's second add — video 2 has no evictions so nothing else changes.
	capped := diffPlan(live, best, ranked, counts, 1)
	if len(capped.Adds) != 1 || capped.Adds[0].Video != 2 || capped.Adds[0].Server != 1 {
		t.Fatalf("capped adds = %+v", capped.Adds)
	}
	if len(capped.Evicts) != 1 {
		t.Fatalf("capped evicts = %+v", capped.Evicts)
	}

	// Truncating a video WITH planned evictions must drop those evictions.
	live2 := [][]int{
		0: {0},
		1: {1},
		2: {0, 2}, // target {0,1}: one add (server 1) and one evict (server 2)
	}
	best2 := anneal.NewBitRateLayout(3, 3)
	best2.SetRate(0, 0, 0) // video 2 -> {0,1}
	best2.SetRate(0, 1, 0)
	best2.SetRate(1, 0, 0)
	best2.SetRate(2, 1, 0)
	full := diffPlan(live2, best2, ranked, counts, 8)
	if len(full.Adds) != 1 || len(full.Evicts) != 1 {
		t.Fatalf("full plan = %+v", full)
	}
	// With the add capped away, the paired eviction must vanish too.
	trunc := diffPlan([][]int{
		0: {0},
		1: {1},
		2: {0, 2},
	}, func() *anneal.BitRateLayout {
		b := anneal.NewBitRateLayout(3, 3)
		b.SetRate(0, 0, 0)
		b.SetRate(0, 1, 0)
		b.SetRate(1, 0, 0)
		b.SetRate(1, 1, 0) // video 0 also gains server 1
		b.SetRate(2, 1, 0)
		return b
	}(), ranked, counts, 1)
	// Cap 1 keeps only video 2's add; video 2's evict must be dropped with
	// its add still pending... but video 2's add IS the one kept, so its
	// evict stays; video 0's add was truncated and it has no evicts.
	if len(trunc.Adds) != 1 || trunc.Adds[0].Video != 2 {
		t.Fatalf("trunc adds = %+v", trunc.Adds)
	}
	for _, e := range trunc.Evicts {
		if e.Video == 0 {
			t.Fatalf("eviction kept for truncated video 0: %+v", trunc.Evicts)
		}
	}
	if !trunc.hasEvictOn(2) {
		t.Fatalf("video 2's eviction should survive: %+v", trunc.Evicts)
	}
}
