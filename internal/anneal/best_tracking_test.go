package anneal

import (
	"fmt"
	"reflect"
	"testing"

	"vodcluster/internal/stats"
)

// referenceMinimizeDelta is MinimizeDelta as it was before best-so-far
// tracking went incremental: a full Clone of the working state on every
// improving move. It is the oracle the Sync path is compared against, and
// also reports how many times the best improved.
func referenceMinimizeDelta[S, M any](p DeltaProblem[S, M], initial S, opts Options) (Result[S], int, error) {
	var zero Result[S]
	o, err := opts.normalized()
	if err != nil {
		return zero, 0, err
	}
	rng := stats.NewRNG(o.Seed)
	cur := p.Clone(initial)
	curCost := p.Cost(cur)
	res := Result[S]{Best: p.Clone(cur), BestCost: curCost}
	improvements := 0

	temp := o.InitialTemp
	for temp >= o.MinTemp {
		for i := 0; i < o.PlateauSteps; i++ {
			if o.MaxSteps > 0 && res.Steps >= o.MaxSteps {
				return res, improvements, nil
			}
			res.Steps++
			move, d := p.Propose(cur, rng)
			if p.IsNoop(move) {
				continue
			}
			if accept(curCost, curCost+d, temp, rng) {
				p.Apply(cur, move)
				curCost += d
				res.Accepted++
				if curCost < res.BestCost {
					res.Best, res.BestCost = p.Clone(cur), curCost
					improvements++
				}
			} else {
				p.Revert(cur, move)
			}
		}
		res.CostTrace = append(res.CostTrace, curCost)
		temp *= o.Cooling
	}
	return res, improvements, nil
}

// requireSameResult fails unless got and want agree exactly: Best cell for
// cell, BestCost, Steps, Accepted and every CostTrace sample bit for bit.
func requireSameResult(t *testing.T, ctx string, got, want Result[*BitRateLayout]) {
	t.Helper()
	if !reflect.DeepEqual(snapshotRateIdx(got.Best), snapshotRateIdx(want.Best)) {
		t.Fatalf("%s: Best differs from the reference's", ctx)
	}
	if got.BestCost != want.BestCost || got.Steps != want.Steps || got.Accepted != want.Accepted {
		t.Fatalf("%s: BestCost/Steps/Accepted = %.17g/%d/%d, want %.17g/%d/%d", ctx,
			got.BestCost, got.Steps, got.Accepted, want.BestCost, want.Steps, want.Accepted)
	}
	if !reflect.DeepEqual(got.CostTrace, want.CostTrace) {
		t.Fatalf("%s: CostTrace = %v, want %v", ctx, got.CostTrace, want.CostTrace)
	}
}

// TestBestTrackingMatchesCloneReference is the differential test for
// incremental best tracking: over the lockstep harness's three shapes and
// three seeds each, MinimizeDelta must return exactly what the
// clone-on-every-improvement loop returns. The cooling schedule stops on
// MaxSteps in the middle of a plateau; the hot schedule never cools, so the
// layout saturates, bests become rare and thousands of accepted moves (far
// more than there are rows) pile up between two Syncs; the long schedule on
// the small shape commits more than rebuildEvery moves.
func TestBestTrackingMatchesCloneReference(t *testing.T) {
	cooling := Options{InitialTemp: 1, Cooling: 0.95, PlateauSteps: 200, MinTemp: 1e-4, MaxSteps: 7_777}
	hot := Options{InitialTemp: 50, Cooling: 0.999, PlateauSteps: 1000, MinTemp: 1, MaxSteps: 25_500}
	long := hot
	long.MaxSteps = 2*rebuildEvery + 333

	run := func(ctx string, bp *BitRateProblem, opts Options) (Result[*BitRateLayout], int) {
		t.Helper()
		init, err := bp.InitialSolution()
		if err != nil {
			t.Fatal(err)
		}
		got, err := MinimizeDelta[*BitRateLayout, any](bp, init, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, improvements, err := referenceMinimizeDelta[*BitRateLayout, any](bp, init, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, ctx, got, want)
		if got.Steps != opts.MaxSteps || got.Steps%opts.PlateauSteps == 0 {
			t.Fatalf("%s: stopped after %d steps, want MaxSteps %d inside a plateau of %d", ctx, got.Steps, opts.MaxSteps, opts.PlateauSteps)
		}
		if !relClose(bp.Cost(got.Best), got.BestCost, 1e-9) {
			t.Fatalf("%s: Cost(Best) = %.17g, BestCost = %.17g", ctx, bp.Cost(got.Best), got.BestCost)
		}
		return got, improvements
	}

	for shape, bp := range deltaShapes(t) {
		for seed := int64(1); seed <= 3; seed++ {
			cooling.Seed, hot.Seed, long.Seed = seed, seed, seed
			ctx := fmt.Sprintf("shape %d seed %d", shape, seed)
			_, improvements := run(ctx+" cooling", bp, cooling)
			if improvements == 0 {
				t.Fatalf("%s cooling: the best never improved", ctx)
			}
			res, improvements := run(ctx+" hot", bp, hot)
			if improvements == 0 || res.Accepted < 100*improvements || res.Accepted < 100*bp.P.M() {
				t.Fatalf("%s hot: %d accepted moves for %d bests over %d rows; want a saturated walk where bests are rare",
					ctx, res.Accepted, improvements, bp.P.M())
			}
			if shape == 0 {
				res, _ := run(ctx+" long", bp, long)
				if res.Accepted <= rebuildEvery {
					t.Fatalf("%s long: %d accepted moves do not cross rebuildEvery = %d", ctx, res.Accepted, rebuildEvery)
				}
			}
		}
	}
}

// TestSyncCopiesDirtyRows drives the delta protocol by hand with Syncs at
// random intervals: after each one best must equal cur cell for cell, and
// between them the dirty set lists each changed row once, so it never
// outgrows M however many moves are committed.
func TestSyncCopiesDirtyRows(t *testing.T) {
	for shape, bp := range deltaShapes(t) {
		init, err := bp.InitialSolution()
		if err != nil {
			t.Fatal(err)
		}
		cur := bp.Clone(init)
		best := bp.Clone(cur)
		bp.Sync(best, cur) // no proposal yet: nothing to copy, nothing to crash on
		rng := stats.NewRNG(int64(300 + shape))
		m := bp.P.M()
		syncs, fullest := 0, 0
		for step := 0; step < 40_000; step++ {
			move, _ := bp.Propose(cur, rng)
			if bp.IsNoop(move) {
				continue
			}
			if rng.Bernoulli(0.7) {
				bp.Apply(cur, move)
			} else {
				bp.Revert(cur, move)
			}
			c := cur.cache
			flagged := 0
			for _, d := range c.isDirty {
				if d {
					flagged++
				}
			}
			if len(c.dirty) != flagged || len(c.dirty) > m {
				t.Fatalf("shape %d step %d: dirty lists %d rows, %d flagged, M = %d", shape, step, len(c.dirty), flagged, m)
			}
			if len(c.dirty) > fullest {
				fullest = len(c.dirty)
			}
			if rng.Bernoulli(0.002) {
				bp.Sync(best, cur)
				syncs++
				if len(c.dirty) != 0 {
					t.Fatalf("shape %d step %d: Sync left %d dirty rows", shape, step, len(c.dirty))
				}
				if !sameRateIdx(snapshotRateIdx(best), cur) {
					t.Fatalf("shape %d step %d: best differs from cur after Sync", shape, step)
				}
			}
		}
		if syncs < 10 || fullest < m {
			t.Fatalf("shape %d: %d syncs, fullest dirty set %d of %d rows; the walk did not exercise dedup", shape, syncs, fullest, m)
		}
	}
}

// TestBestDoesNotAliasWorkingState checks that the returned Best is a plain
// layout of its own: re-annealing from it, as rebalance.Controller does with
// the previous round's plan, reproduces a run from an independent copy and
// leaves it untouched, and it carries no engine state — driving the delta
// protocol on it directly starts from a cache that matches a scratch Cost.
func TestBestDoesNotAliasWorkingState(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 20)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InitialTemp: 1, Cooling: 0.95, PlateauSteps: 200, MinTemp: 1e-4, MaxSteps: 9_999, Seed: 5}
	first, err := Minimize[*BitRateLayout](bp, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotRateIdx(first.Best)
	copied := NewBitRateLayout(bp.P.M(), bp.P.N())
	for v := range snap {
		for s, ri := range snap[v] {
			copied.SetRate(v, s, ri)
		}
	}

	again := Options{InitialTemp: 0.05, Cooling: 0.9, PlateauSteps: 100, MinTemp: 1e-3, MaxSteps: 3_000, Seed: 6}
	fromBest, err := Minimize[*BitRateLayout](bp, first.Best, again)
	if err != nil {
		t.Fatal(err)
	}
	fromCopy, err := Minimize[*BitRateLayout](bp, copied, again)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "re-anneal from Best vs from a copy", fromBest, fromCopy)
	if !sameRateIdx(snap, first.Best) {
		t.Fatal("re-annealing from Best changed it")
	}
	if &fromBest.Best.rows[0][0] == &first.Best.rows[0][0] {
		t.Fatal("the second run's Best shares storage with its initial state")
	}

	rng := stats.NewRNG(8)
	for step := 0; step < 300; step++ {
		move, _ := bp.Propose(first.Best, rng)
		if bp.IsNoop(move) {
			continue
		}
		if rng.Bernoulli(0.5) {
			bp.Apply(first.Best, move)
		} else {
			bp.Revert(first.Best, move)
		}
		checkEvalAgainstScratch(t, bp, first.Best, fmt.Sprintf("step %d on the returned Best", step))
	}
}

// TestBestTrackingAllocsDoNotGrowWithSteps pins the point of incremental
// best tracking: allocations belong to set-up, not to the step loop. Ten
// times the proposals may add a few amortised appends (on lists, the move
// log) but nothing per improvement — the old loop cloned M+1 slices on each.
func TestBestTrackingAllocsDoNotGrowWithSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const m, n = 2000, 8
	bp := bitrateProblem(t, m, n, 4*1.35*m/n)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		opts := Options{InitialTemp: 1, Cooling: 0.95, PlateauSteps: steps, MinTemp: 1e-4, MaxSteps: steps, Seed: 1}
		return testing.AllocsPerRun(3, func() {
			res, err := Minimize[*BitRateLayout](bp, init, opts)
			if err != nil || res.Steps != steps {
				t.Fatalf("ran %d of %d steps: %v", res.Steps, steps, err)
			}
		})
	}
	short, long := allocs(2_000), allocs(20_000)
	t.Logf("allocations per run: %.0f at 2 000 steps, %.0f at 20 000", short, long)
	if extra := long - short; extra > 18_000/100 {
		t.Fatalf("18 000 more proposals cost %.0f more allocations (%.0f → %.0f); want under one per hundred", extra, short, long)
	}
}
