package anneal

import (
	"fmt"
	"math"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// relClose reports whether a and b agree within tol relative to their
// magnitude (with an absolute floor of tol for values near zero).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// checkEvalAgainstScratch cross-checks every cached component and the cached
// cost of l against the from-scratch Evaluate/Cost, failing with the given
// context label.
func checkEvalAgainstScratch(t *testing.T, bp *BitRateProblem, l *BitRateLayout, ctx string) {
	t.Helper()
	const tol = 1e-9
	c := l.cache
	got := c.eval()
	want := bp.Evaluate(l)
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"MeanRateMbps", got.MeanRateMbps, want.MeanRateMbps},
		{"Degree", got.Degree, want.Degree},
		{"Imbalance", got.Imbalance, want.Imbalance},
		{"Objective", got.Objective, want.Objective},
		{"StorageViolation", got.StorageViolation, want.StorageViolation},
		{"BandwidthViolation", got.BandwidthViolation, want.BandwidthViolation},
		{"Orphans", float64(got.Orphans), float64(want.Orphans)},
		{"cost", c.cost, bp.Cost(l)},
	}
	for _, p := range pairs {
		if !relClose(p.got, p.want, tol) {
			t.Fatalf("%s: cached %s = %.17g, scratch = %.17g (Δ %g)",
				ctx, p.name, p.got, p.want, p.got-p.want)
		}
	}
	// Feasibility bookkeeping must agree exactly, not just within tolerance:
	// a drifting flag would flip the 1e6 penalty cliff.
	feasible := c.violCount == 0 && c.orphans == 0
	if feasible != want.Feasible() {
		t.Fatalf("%s: cached feasibility %v, scratch %v", ctx, feasible, want.Feasible())
	}
}

// snapshotRateIdx copies the layout into an M×N matrix of rate indices for
// bit-exact comparison.
func snapshotRateIdx(l *BitRateLayout) [][]int16 { return denseOf(l).RateIdx }

func sameRateIdx(a [][]int16, l *BitRateLayout) bool {
	for v := range a {
		for s := range a[v] {
			if a[v][s] != l.Rate(v, s) {
				return false
			}
		}
	}
	return true
}

// deltaShapes are the instance shapes the differential harness sweeps: a
// small tight cluster, a mid-size one, and a heterogeneous cluster where
// per-server capacities differ (exercising StorageOf/BandwidthOf per server).
func deltaShapes(t testing.TB) []*BitRateProblem {
	t.Helper()
	small := bitrateProblem(t, 8, 2, 12)
	mid := bitrateProblem(t, 15, 4, 20)
	het := bitrateProblem(t, 24, 6, 30)
	het.P.ServerStorage = []float64{
		18 * core.GB, 24 * core.GB, 30 * core.GB, 36 * core.GB, 42 * core.GB, 48 * core.GB,
	}
	het.P.ServerBandwidth = []float64{
		0.6 * core.Gbps, 0.8 * core.Gbps, core.Gbps, 1.2 * core.Gbps, 1.4 * core.Gbps, 1.6 * core.Gbps,
	}
	if err := het.P.Validate(); err != nil {
		t.Fatal(err)
	}
	return []*BitRateProblem{small, mid, het}
}

// TestDeltaMatchesScratchEvaluate is the differential harness the delta fast
// path is gated on: it drives Propose/Apply/Revert over thousands of
// randomized moves per instance shape and asserts after every single step
// that the cached evaluation components match the from-scratch Evaluate
// within 1e-9 relative, and that Revert restores the layout bit-exactly.
// The last shape is the mid one under Eq. 3's imbalance.
func TestDeltaMatchesScratchEvaluate(t *testing.T) {
	const wantAccepted = 5000
	shapes := deltaShapes(t)
	std := *shapes[1]
	std.Obj = core.Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
	for shape, bp := range append(shapes, &std) {
		l, err := bp.InitialSolution()
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(int64(1000 + shape))
		accepted, reverted, noops := 0, 0, 0
		for step := 0; accepted < wantAccepted; step++ {
			if step > 50*wantAccepted {
				t.Fatalf("shape %d: only %d accepted moves after %d proposals", shape, accepted, step)
			}
			pre := snapshotRateIdx(l)
			move, d := bp.Propose(l, rng)
			if bp.IsNoop(move) {
				noops++
				if !sameRateIdx(pre, l) {
					t.Fatalf("shape %d step %d: no-op proposal mutated the layout", shape, step)
				}
				continue
			}
			// Bias toward accepting so the walk wanders far from the initial
			// solution, but keep a steady diet of reverts.
			if rng.Bernoulli(0.7) {
				bp.Apply(l, move)
				accepted++
				// The returned delta must price the transition exactly.
				if !relClose(l.cache.cost, bp.Cost(l), 1e-9) {
					t.Fatalf("shape %d step %d: cached cost diverged", shape, step)
				}
				_ = d
			} else {
				bp.Revert(l, move)
				reverted++
				if !sameRateIdx(pre, l) {
					t.Fatalf("shape %d step %d: Revert did not restore the layout", shape, step)
				}
			}
			checkEvalAgainstScratch(t, bp, l, fmt.Sprintf("shape %d step %d", shape, step))
		}
		if reverted == 0 {
			t.Fatalf("shape %d: walk never reverted", shape)
		}
		t.Logf("shape %d: %d accepted, %d reverted, %d no-ops", shape, accepted, reverted, noops)
	}
}

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

// checkRepairProperties runs one seeded repair scenario through both the
// scratch and the delta repair and asserts the shared invariants: repair
// terminates, never evicts a video's cluster-wide last copy, and restores
// full feasibility whenever a feasible reduction sequence exists (it always
// does here — the perturbation itself can be undone).
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

	// Delta path: perturb through the cache, repair through the cache.
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
		t.Fatalf("seed %d: delta repair left %d violated servers", seed, c.violCount)
	}
	e := bp.Evaluate(dl)
	if !e.Feasible() {
		t.Fatalf("seed %d: delta repair left infeasible state: %+v", seed, e)
	}
	for v := 0; v < bp.P.M(); v++ {
		if dl.Copies(v) == 0 {
			t.Fatalf("seed %d: delta repair evicted video %d's last copy", seed, v)
		}
	}
	checkEvalAgainstScratch(t, bp, dl, fmt.Sprintf("seed %d post-repair", seed))

	// Scratch path: the same class of perturbation, repaired by the original
	// full-rescan repair.
	sl := init.clone()
	srng := rng.Derive(2)
	sc := newBRCache(bp, sl) // only used to reuse perturb's cell mechanics
	if perturb(bp, sl, sc, srng) {
		sl.cache = nil // force the scratch repair to rescan honestly
		bp.repair(sl, srng)
		se := bp.Evaluate(sl)
		if !se.Feasible() {
			t.Fatalf("seed %d: scratch repair left infeasible state: %+v", seed, se)
		}
		for v := 0; v < bp.P.M(); v++ {
			if sl.Copies(v) == 0 {
				t.Fatalf("seed %d: scratch repair evicted video %d's last copy", seed, v)
			}
		}
	}
}

// TestRepairProperties sweeps seeded random instances through both repair
// implementations.
func TestRepairProperties(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		checkRepairProperties(t, seed)
	}
}

// FuzzBitRateRepair lets the fuzzer hunt for instance shapes where either
// repair path diverges from its invariants.
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

// cacheSink and evalSink keep the set-up and plan benchmarks' results from
// being optimised away.
var (
	cacheSink *brCache
	evalSink  Eval
)

// BenchmarkAnnealBitRate compares raw proposal throughput of the scratch
// clone-and-rescan path against the delta fast path at three catalog sizes.
// ./benchmark's plan_paper and plan_scale workloads measure the delta path
// end to end (anneal.proposals_per_s); this benchmark is the developer-facing
// view of the same number. The last case is the benchmark's
// plan_scale shape, delta path only (a scratch proposal there rescans 1.28 M
// cells): its allocations per proposal are what best-so-far tracking by Sync
// keeps near zero. There path=setup builds the delta cache alone, the set-up
// every plan pays once, and reports its bytes per build; path=plan is the
// annealer half of one plan_scale repetition (InitialSolution, a 1 000-proposal
// Minimize on the benchmark's schedule, Evaluate) with its time and bytes
// per plan.
func BenchmarkAnnealBitRate(b *testing.B) {
	for _, c := range []struct {
		m, n  int
		paths []string
	}{
		{100, 8, []string{"scratch", "delta"}},
		{500, 8, []string{"scratch", "delta"}},
		{2000, 8, []string{"scratch", "delta"}},
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
			var prob Problem[*BitRateLayout] = bp
			if path == "scratch" {
				prob = Scratch[*BitRateLayout](bp)
			}
			b.Run(fmt.Sprintf("path=%s/%s", path, size), func(b *testing.B) {
				opts := DefaultOptions()
				opts.Seed = 1
				opts.MaxSteps = b.N
				opts.PlateauSteps = b.N // one plateau; MaxSteps terminates the run
				b.ReportAllocs()
				b.ResetTimer()
				res, err := Minimize[*BitRateLayout](prob, init, opts)
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
