package anneal

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// TestDeltaDemandRipple pins the w_i = p_i·λ·T/r_i cross-server ripple: when
// a video gains or loses a copy, the cached demand of *other* servers holding
// it must shift too. A rebuilt cache is the oracle.
func TestDeltaDemandRipple(t *testing.T) {
	bp := bitrateProblem(t, 10, 4, 30)
	l, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	c := bp.ensureCache(l)
	// Give video 0 a second copy on a server it is not on; its first copy's
	// server must see its demand drop (w halves) without being touched.
	home := -1
	for s := 0; s < bp.P.N(); s++ {
		if l.Rate(0, s) >= 0 {
			home = s
			break
		}
	}
	other := (home + 1) % bp.P.N()
	before := c.demand[home]
	c.setCell(l, 0, other, 0, false)
	if c.demand[home] >= before {
		t.Fatalf("adding a copy elsewhere did not reduce the home server's demand: %g → %g",
			before, c.demand[home])
	}
	fresh := newBRCache(bp, l)
	for s := 0; s < bp.P.N(); s++ {
		if !relClose(c.demand[s], fresh.demand[s], 1e-9) {
			t.Fatalf("server %d demand drifted from oracle: %g vs %g", s, c.demand[s], fresh.demand[s])
		}
	}
}

// perturb pushes a feasible layout toward infeasibility the same way a
// proposal does — raise one random cell or add one copy — returning false if
// the instance admits no perturbation.
func perturb(bp *BitRateProblem, l *BitRateLayout, c *brCache, rng *stats.RNG) bool {
	m, n := bp.P.M(), bp.P.N()
	for try := 0; try < 4*m*n; try++ {
		v, s := rng.Intn(m), rng.Intn(n)
		ri := l.Rate(v, s)
		switch {
		case ri < 0:
			c.setCell(l, v, s, 0, true)
			return true
		case int(ri) < len(bp.RateSet)-1:
			c.setCell(l, v, s, ri+1, true)
			return true
		}
	}
	return false
}

// repairInstance builds a random feasible instance for the repair property
// tests; shapes span m∈[2,40], n∈[1,8]. Returns nil when the random draw
// cannot fit even the initial solution.
func repairInstance(t testing.TB, rng *stats.RNG) *BitRateProblem {
	t.Helper()
	m := 2 + rng.Intn(39)
	n := 1 + rng.Intn(8)
	// Enough room for the one-copy-per-video start plus some slack; the
	// additive floor keeps the largest single video (2.7 GB at the catalog's
	// 4 Mb/s) fitting on one server, which Validate requires.
	perServer := float64(m)/float64(n)*1.35 + 2.7
	storageGB := perServer * (1 + rng.Float64()*2)
	c, err := core.NewCatalog(m, 0.5+rng.Float64(), 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         n,
		StoragePerServer:   storageGB * core.GB,
		BandwidthPerServer: (0.5 + rng.Float64()) * core.Gbps,
		ArrivalRate:        (2 + 8*rng.Float64()) / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return &BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
}

// checkRepairProperties runs one seeded repair scenario: perturb a feasible
// layout through the cache, repair it, and assert that repair terminates,
// never evicts a video's cluster-wide last copy, and restores full
// feasibility whenever a feasible reduction sequence exists (it always does
// here — the perturbation itself can be undone).
func checkRepairProperties(t *testing.T, seed int64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	bp := repairInstance(t, rng)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Skipf("seed %d: initial solution does not fit: %v", seed, err)
	}
	if !bp.Evaluate(init).Feasible() {
		// The random draw produced an instance that is infeasible even at one
		// minimum-rate copy per video; a feasible reduction sequence cannot
		// exist, so the repair guarantee does not apply.
		t.Skipf("seed %d: instance infeasible at the initial solution", seed)
	}

	dl := init.clone()
	c := bp.ensureCache(dl)
	c.mv.cells = c.mv.cells[:0]
	drng := rng.Derive(1)
	if !perturb(bp, dl, c, drng) {
		t.Skipf("seed %d: instance admits no perturbation", seed)
	}
	c.repair(dl, drng)
	c.cost = bp.costOf(c.eval()) // Propose refreshes the cached cost after repair
	if c.violCount != 0 {
		t.Fatalf("seed %d: repair left %d violated servers", seed, c.violCount)
	}
	e := bp.Evaluate(dl)
	if !e.Feasible() {
		t.Fatalf("seed %d: repair left infeasible state: %+v", seed, e)
	}
	for v := 0; v < bp.P.M(); v++ {
		if dl.Copies(v) == 0 {
			t.Fatalf("seed %d: repair evicted video %d's last copy", seed, v)
		}
	}
	checkEvalAgainstScratch(t, bp, dl, fmt.Sprintf("seed %d post-repair", seed))
}

// TestRepairProperties sweeps sixty seeded random instances through the
// repair, one subtest each, so a seed that skips skips alone.
func TestRepairProperties(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkRepairProperties(t, seed) })
	}
}

// FuzzBitRateRepair lets the fuzzer hunt for instance shapes where the
// repair breaks its invariants.
func FuzzBitRateRepair(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRepairProperties(t, seed)
	})
}

// fullyPackedProblem builds the regression instance for the no-op
// accounting fix: one server holding every video at the maximum rate with no
// storage left, so no move exists at all. The arrival rate is tiny so the
// packed state is genuinely feasible.
func fullyPackedProblem(t *testing.T) (*BitRateProblem, *BitRateLayout) {
	t.Helper()
	c, err := core.NewCatalog(2, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Two videos at 8 Mb/s × 90 min = 5.4 GB each; 11 GB holds both with no
	// room for anything else.
	p := &core.Problem{
		Catalog:            c,
		NumServers:         1,
		StoragePerServer:   11 * core.GB,
		BandwidthPerServer: core.Gbps,
		ArrivalRate:        0.01 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bp := &BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
	l := NewBitRateLayout(2, 1)
	l.SetRate(0, 0, 3)
	l.SetRate(1, 0, 3)
	if e := bp.Evaluate(l); !e.Feasible() {
		t.Fatalf("packed regression state infeasible: %+v", e)
	}
	return bp, l
}

// TestFullyPackedInstanceNeverAccepts is the regression test for the
// inflated-Accepted bug: a fully packed server admits no move, so every
// proposal must be a recognized no-op on both engine paths.
func TestFullyPackedInstanceNeverAccepts(t *testing.T) {
	bp, l := fullyPackedProblem(t)
	opts := Options{InitialTemp: 1, Cooling: 0.9, PlateauSteps: 50, MinTemp: 0.5, Seed: 3}

	res, err := Minimize[*BitRateLayout](bp, l, opts) // delta path
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Accepted != 0 {
		t.Fatalf("delta path: steps %d accepted %d, want >0 and 0", res.Steps, res.Accepted)
	}

	res, err = Minimize[*BitRateLayout](Scratch[*BitRateLayout](bp), l, opts) // scratch path
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Accepted != 0 {
		t.Fatalf("scratch path: steps %d accepted %d, want >0 and 0", res.Steps, res.Accepted)
	}
}

// TestDeltaPathFindsFeasibleOptimum mirrors TestOptimizeImprovesObjective
// explicitly on both paths: the delta engine must land at least as good a
// feasible objective as the scratch engine started from.
func TestDeltaPathFindsFeasibleOptimum(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 25)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	before := bp.Evaluate(init)
	opts := DefaultOptions()
	opts.Seed = 11
	opts.MaxSteps = 30000

	res, err := Minimize[*BitRateLayout](bp, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := bp.Evaluate(res.Best)
	if !after.Feasible() {
		t.Fatalf("delta path best infeasible: %+v", after)
	}
	if after.Objective <= before.Objective {
		t.Fatalf("delta path did not improve: %g → %g", before.Objective, after.Objective)
	}
	// The engine's bookkept best cost must price Best exactly like Cost.
	if !relClose(res.BestCost, bp.Cost(res.Best), 1e-9) {
		t.Fatalf("BestCost %g disagrees with Cost(Best) %g", res.BestCost, bp.Cost(res.Best))
	}
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
	if !reflect.DeepEqual(snap, snapshotRateIdx(first.Best)) {
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

// TestCacheSetupAllocsStaySparse pins the memory the holder lists saved:
// building the cache at plan_scale's M = 20 000, N = 64 allocates per-video
// vectors and the holders, not the two N·M tables (≈ 10 MB) the dense off
// lists and positions took.
func TestCacheSetupAllocsStaySparse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bp := bitrateProblem(t, 20_000, 64, 1250)
	bp.P.ArrivalRate = 240.0 / core.Minute
	l, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	newBRCache(bp, l) // warm up whatever the first call allocates once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	newBRCache(bp, l)
	runtime.ReadMemStats(&after)
	const limit = 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("building the plan_scale cache allocated %d bytes; want under %d", got, limit)
	}
}

// TestSetRateMatchesDenseMatrix is the accessor property test: random
// SetRate calls (adds, rate changes, removals and no-op removals) against a
// plain matrix, after each of which Rate, Copies and EachCopy's ascending
// walk agree with it, and every few calls TotalCopies and a clone do too.
func TestSetRateMatchesDenseMatrix(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 20; trial++ {
		m, n := 1+rng.Intn(30), 1+rng.Intn(12)
		l := NewBitRateLayout(m, n)
		d := newDenseLayout(m, n)
		for op := 0; op < 2_000; op++ {
			v, s := rng.Intn(m), rng.Intn(n)
			ri := int16(rng.Intn(5) - 1)
			l.SetRate(v, s, ri)
			d.RateIdx[v][s] = ri
			ctx := fmt.Sprintf("trial %d op %d", trial, op)
			if got := l.Rate(v, s); got != ri {
				t.Fatalf("%s: Rate(%d, %d) = %d after SetRate %d", ctx, v, s, got, ri)
			}
			var walked []int16
			prev := -1
			l.EachCopy(v, func(s int, ri int16) {
				if s <= prev {
					t.Fatalf("%s: video %d walks server %d after %d", ctx, v, s, prev)
				}
				for ; prev+1 < s; prev++ {
					walked = append(walked, -1)
				}
				walked = append(walked, ri)
				prev = s
			})
			for len(walked) < n {
				walked = append(walked, -1)
			}
			if !slices.Equal(walked, d.RateIdx[v]) {
				t.Fatalf("%s: video %d walks as %v, matrix %v", ctx, v, walked, d.RateIdx[v])
			}
			if got, want := l.Copies(v), d.copies(v); got != want {
				t.Fatalf("%s: video %d has %d copies, matrix %d", ctx, v, got, want)
			}
			if op%100 == 99 {
				requireSameCells(t, ctx, l, d)
				requireSameCells(t, ctx+" clone", l.clone(), d)
			}
		}
	}
}

// TestSetRateDropsCache checks that an outside write cannot leave the
// delta cache out of step with the layout: SetRate drops it, and the next
// Propose rebuilds it from the written layout.
func TestSetRateDropsCache(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 20)
	l, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	bp.ensureCache(l)
	l.SetRate(3, 2, 1)
	if l.cache != nil {
		t.Fatal("SetRate kept the delta cache")
	}
	rng := stats.NewRNG(3)
	for step := 0; step < 50; step++ {
		move, _ := bp.Propose(l, rng)
		bp.Apply(l, move)
		checkEvalAgainstScratch(t, bp, l, fmt.Sprintf("step %d after SetRate", step))
	}
}

// TestLayoutAllocsStaySparse pins the memory the sparse layout saved: at
// plan_scale's M = 20 000, N = 64, the initial solution and the two clones
// every Minimize makes (the working state and the best) allocate a row
// header and a copy per video, not three M·N grids of rate indices
// (≈ 9.1 MB).
func TestLayoutAllocsStaySparse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bp := bitrateProblem(t, 20_000, 64, 1250)
	bp.P.ArrivalRate = 240.0 / core.Minute
	if _, err := bp.InitialSolution(); err != nil { // warm up whatever the first call allocates once
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	bp.Clone(bp.Clone(l))
	runtime.ReadMemStats(&after)
	const limit = 2.5 * (1 << 20)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("the plan_scale initial solution and two clones allocated %d bytes; want under %d", got, int(limit))
	}
}

// cacheSink and evalSink keep the set-up and plan benchmarks' results from
// being optimised away.
var (
	cacheSink *brCache
	evalSink  Eval
)

// BenchmarkAnnealBitRate measures proposal throughput at three catalog sizes.
// ./benchmark's plan_paper and plan_scale workloads measure it end to end
// (anneal.proposals_per_s); this benchmark is the developer-facing view of
// the same number. The last case is the benchmark's plan_scale shape: its
// allocations per proposal are what best-so-far tracking by Sync keeps near
// zero. There path=setup builds the delta cache alone, the set-up every plan
// pays once, and reports its bytes per build; path=plan is the annealer half
// of one plan_scale repetition (InitialSolution, a 1 000-proposal Minimize
// on the benchmark's schedule, Evaluate) with its time and bytes per plan.
func BenchmarkAnnealBitRate(b *testing.B) {
	for _, c := range []struct {
		m, n  int
		paths []string
	}{
		{100, 8, []string{"delta"}},
		{500, 8, []string{"delta"}},
		{2000, 8, []string{"delta"}},
		{20000, 64, []string{"setup", "delta", "plan"}},
	} {
		m, n := c.m, c.n
		storageGB := 4 * 1.35 * float64(m) / float64(n)
		bp := bitrateProblem(b, m, n, storageGB)
		init, err := bp.InitialSolution()
		if err != nil {
			b.Fatal(err)
		}
		size := fmt.Sprintf("M=%d", m)
		if n != 8 {
			size += fmt.Sprintf(",N=%d", n)
		}
		for _, path := range c.paths {
			if path == "plan" {
				b.Run("path=plan/"+size, func(b *testing.B) {
					opts := DefaultOptions()
					opts.Seed = 1
					opts.MaxSteps = 1_000
					opts.PlateauSteps = (opts.MaxSteps + 179) / 180 // cool through 180 temperatures
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						init, err := bp.InitialSolution()
						if err != nil {
							b.Fatal(err)
						}
						res, err := Minimize[*BitRateLayout](bp, init, opts)
						if err != nil {
							b.Fatal(err)
						}
						evalSink = bp.Evaluate(res.Best)
					}
				})
				continue
			}
			if path == "setup" {
				b.Run("path=setup/"+size, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						cacheSink = newBRCache(bp, init)
					}
				})
				continue
			}
			b.Run(fmt.Sprintf("path=%s/%s", path, size), func(b *testing.B) {
				opts := DefaultOptions()
				opts.Seed = 1
				opts.MaxSteps = b.N
				opts.PlateauSteps = b.N // one plateau; MaxSteps terminates the run
				b.ReportAllocs()
				b.ResetTimer()
				res, err := Minimize[*BitRateLayout](bp, init, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if res.Steps != b.N {
					b.Fatalf("ran %d steps, want %d", res.Steps, b.N)
				}
				b.ReportMetric(float64(res.Steps)/b.Elapsed().Seconds(), "proposals/s")
			})
		}
	}
}
