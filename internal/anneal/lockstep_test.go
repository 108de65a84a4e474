package anneal

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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
func checkEvalAgainstScratch(t testing.TB, bp *BitRateProblem, l *BitRateLayout, ctx string) {
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

// requireListsMatch fails unless server s's holder lists in c equal d's:
// the on list, the off list's length, the video at every index and the
// position of every video; and unless each on-list video's rate index in
// onRI is its copy's in the grid g.
func requireListsMatch(t testing.TB, ctx string, c *brCache, d *denseLists, g *denseLayout, s int) {
	t.Helper()
	h := &c.lists[s]
	if !slices.Equal(h.on, d.on[s]) {
		t.Fatalf("%s: server %d on list %v, dense %v", ctx, s, h.on, d.on[s])
	}
	if len(h.onRI) != len(h.on) {
		t.Fatalf("%s: server %d onRI holds %d rate indices for %d videos", ctx, s, len(h.onRI), len(h.on))
	}
	for k, v := range h.on {
		if ri := g.RateIdx[v][s]; h.onRI[k] != ri {
			t.Fatalf("%s: server %d onRI[%d] = %d, video %d's copy has %d", ctx, s, k, h.onRI[k], v, ri)
		}
	}
	if h.offLen != len(d.off[s]) {
		t.Fatalf("%s: server %d off list holds %d videos, dense %d", ctx, s, h.offLen, len(d.off[s]))
	}
	for i, v := range d.off[s] {
		if got := h.offAt(i); got != v {
			t.Fatalf("%s: server %d off[%d] = %d, dense %d", ctx, s, i, got, v)
		}
	}
	for v, p := range d.pos[s] {
		if got := h.posOf(int32(v)); got != p {
			t.Fatalf("%s: server %d pos[%d] = %d, dense %d", ctx, s, v, got, p)
		}
	}
}

// requireRebuildMatchesReference fails unless c, just built or rebuilt for
// l, holds what a rebuild from the grid g gives: the same accumulators bit
// for bit and, on every server, lists in the implicit state that equal the
// dense lists filled from g.
func requireRebuildMatchesReference(t testing.TB, ctx string, c *brCache, l *BitRateLayout, g *denseLayout, lists *denseLists) {
	t.Helper()
	want := newBRCache(c.bp, l)
	denseRebuild(want, g)
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"storage", c.storage, want.storage},
		{"demand", c.demand, want.demand},
		{"isViol", c.isViol, want.isViol},
		{"violCount", c.violCount, want.violCount},
		{"copies", c.copies, want.copies},
		{"rateSum", c.rateSum, want.rateSum},
		{"qualitySum", c.qualitySum, want.qualitySum},
		{"totalCopies", c.totalCopies, want.totalCopies},
		{"orphans", c.orphans, want.orphans},
		{"cost", c.cost, want.cost},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: rebuilt %s differs from the reference's", ctx, f.name)
		}
	}
	for s := range c.lists {
		if c.lists[s].dense || c.lists[s].written.n != 0 {
			t.Fatalf("%s: server %d lists are dense or written right after a rebuild", ctx, s)
		}
		requireListsMatch(t, ctx, c, lists, g, s)
	}
}

// lockstep runs the production annealer beside the reference. It is a
// DeltaProblem over the production problem, so MinimizeDelta drives it as it
// drives a plan: each Propose, Apply, Revert and Sync goes to the production
// problem and is replayed on the reference, read off the move log — a
// proposal's first cell is an add or a raise, one rate index up, and every
// repair cell after it a lower or an eviction, one down — and what the call
// touched is compared at once; the rest is compared at the cadence's
// intervals.
type lockstep struct {
	*BitRateProblem
	t         testing.TB
	ref       *reference
	cur, best *BitRateLayout // the engine's, as its calls name them
	every     cadence
	plateau   int // the schedule's PlateauSteps

	// The engine's running costs, re-derived from the deltas it was given,
	// and the cost after every plateau.
	curCost, bestCost, d float64
	trace                []float64

	seen    []bool // scratch: servers checkTouched has compared
	touched []bool // servers whose lists changed since the last full check

	// What the walk exercised.
	proposals, noops, applies, reverts, syncs int
	rebuilds, explicit                        int // automatic and explicit rebuilds
	sinceSync, longest                        int // commits since the last Sync, and the most
	implicit, dense                           int // full list checks of a server with moves written, in each state
	fullest                                   int // the most dirty rows at once
}

// cadence is how often the lockstep compares what a call did not touch:
// before every lists-th proposal, the lists of every server touched since
// the last such comparison; before every full-th, everything; and before
// every explicit-th, it rebuilds the cache by hand and compares it with the
// reference's rebuild.
type cadence struct{ lists, full, explicit int }

// runLockstep anneals from init with opts through the lockstep, checks the
// result against the reference and compares everything once more.
func runLockstep(t testing.TB, bp *BitRateProblem, init *BitRateLayout, opts Options, every cadence) *lockstep {
	t.Helper()
	cost := bp.Cost(init)
	h := &lockstep{
		BitRateProblem: bp, t: t, ref: newReference(init), every: every, plateau: opts.PlateauSteps,
		curCost: cost, bestCost: cost,
		seen: make([]bool, bp.P.N()), touched: make([]bool, bp.P.N()),
	}
	bp.Sync(bp.Clone(init), bp.Clone(init)) // before any proposal there is nothing to copy
	res, err := MinimizeDelta[*BitRateLayout, any](h, init, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps%h.plateau == 0 {
		h.trace = append(h.trace, h.curCost)
	}
	if res.Steps != h.proposals || res.Accepted != h.applies || res.BestCost != h.bestCost || !slices.Equal(res.CostTrace, h.trace) {
		t.Fatalf("Steps/Accepted/BestCost = %d/%d/%.17g, the lockstep saw %d/%d/%.17g; CostTrace equal: %v",
			res.Steps, res.Accepted, res.BestCost, h.proposals, h.applies, h.bestCost, slices.Equal(res.CostTrace, h.trace))
	}
	if h.best == nil {
		h.best = res.Best
	}
	if res.Best != h.best {
		t.Fatal("the engine returned a Best it never synced")
	}
	h.checkAll("final")
	return h
}

// Propose implements DeltaProblem.
func (h *lockstep) Propose(l *BitRateLayout, rng *stats.RNG) (any, float64) {
	t := h.t
	k := h.proposals
	ctx := fmt.Sprintf("proposal %d", k)
	if k > 0 && k%h.plateau == 0 {
		h.trace = append(h.trace, h.curCost)
	}
	h.proposals++
	h.cur = l
	if k%h.every.full == 0 {
		h.checkFull(ctx)
	} else if k%h.every.lists == 0 && l.cache != nil {
		h.checkLists(ctx)
	}
	switch c := l.cache; {
	case c == nil: // the first proposal builds the cache from the initial plan
		requireRebuildMatchesReference(t, ctx+" set-up", h.ensureCache(l), l, h.ref.cur, h.ref.lists)
	case c.applies >= rebuildEvery: // Propose rebuilds before it moves
		h.ref.lists.fill(h.ref.cur)
		h.rebuilds++
	case k%h.every.explicit == 0:
		h.checkAll(ctx + " before an explicit rebuild")
		c.rebuild(l)
		h.ref.lists.fill(h.ref.cur)
		h.explicit++
		requireRebuildMatchesReference(t, ctx+" explicit rebuild", c, l, h.ref.cur, h.ref.lists)
	}
	move, d := h.BitRateProblem.Propose(l, rng)
	cells := move.(*brMove).cells
	if h.IsNoop(move) {
		h.noops++
		return move, d
	}
	for i, cell := range cells {
		ri := cell.old - 1
		if i == 0 {
			ri = cell.old + 1
		}
		h.ref.set(int(cell.v), int(cell.s), ri)
	}
	h.checkTouched(ctx+" proposed", cells)
	if !relClose(h.curCost+d, l.cache.cost, 1e-9) {
		t.Fatalf("%s: running cost %.17g plus the delta %g is not the cached cost %.17g", ctx, h.curCost, d, l.cache.cost)
	}
	h.d = d
	return move, d
}

// Apply implements DeltaProblem.
func (h *lockstep) Apply(l *BitRateLayout, move any) {
	h.BitRateProblem.Apply(l, move)
	h.applies++
	h.sinceSync++
	h.curCost += h.d
	h.fullest = max(h.fullest, len(l.cache.dirty))
	if len(l.cache.dirty) > l.M() {
		h.t.Fatalf("proposal %d committed: %d dirty rows of %d", h.proposals-1, len(l.cache.dirty), l.M())
	}
}

// Revert implements DeltaProblem.
func (h *lockstep) Revert(l *BitRateLayout, move any) {
	cells := move.(*brMove).cells
	h.BitRateProblem.Revert(l, move)
	h.reverts++
	for i := len(cells) - 1; i >= 0; i-- {
		h.ref.set(int(cells[i].v), int(cells[i].s), cells[i].old)
	}
	h.checkTouched(fmt.Sprintf("proposal %d reverted", h.proposals-1), cells)
}

// Sync implements DeltaProblem: the reference's best copies its working
// plan, and the rows it copied must equal best's.
func (h *lockstep) Sync(best, cur *BitRateLayout) {
	t := h.t
	ctx := fmt.Sprintf("sync after proposal %d", h.proposals-1)
	if !(h.curCost < h.bestCost) {
		t.Fatalf("%s: running cost %.17g does not improve on the best %.17g", ctx, h.curCost, h.bestCost)
	}
	h.BitRateProblem.Sync(best, cur)
	h.best, h.bestCost = best, h.curCost
	h.syncs++
	h.longest = max(h.longest, h.sinceSync)
	h.sinceSync = 0
	if n := len(cur.cache.dirty); n != 0 {
		t.Fatalf("%s: %d rows left dirty", ctx, n)
	}
	for _, v := range h.ref.improve() {
		if _, diff := diffRow(best, h.ref.best, v); diff != "" {
			t.Fatalf("%s: best %s", ctx, diff)
		}
	}
}

// checkTouched compares every logged cell and its video's copy count and,
// on each server the log names, the on list, the off list's length and the
// positions of each logged video and of the on list's last video, with the
// off-list entry or rate index each position points at.
func (h *lockstep) checkTouched(ctx string, cells []brCell) {
	t := h.t
	c, d := h.cur.cache, h.ref.lists
	checkPos := func(s int, v int32) {
		hl := &c.lists[s]
		p := hl.posOf(v)
		if p != d.pos[s][v] {
			t.Fatalf("%s: server %d pos[%d] = %d, dense %d", ctx, s, v, p, d.pos[s][v])
		}
		ri := h.ref.cur.RateIdx[v][s]
		if ri < 0 && hl.offAt(int(p)) != v {
			t.Fatalf("%s: server %d off[%d] = %d, want %d", ctx, s, p, hl.offAt(int(p)), v)
		}
		if ri >= 0 && hl.onRI[p] != ri {
			t.Fatalf("%s: server %d onRI[%d] = %d, want %d", ctx, s, p, hl.onRI[p], ri)
		}
	}
	for _, cell := range cells {
		v, s := int(cell.v), int(cell.s)
		if got, want := h.cur.Rate(v, s), h.ref.cur.RateIdx[v][s]; got != want {
			t.Fatalf("%s: cell (%d, %d) = %d, grid %d", ctx, v, s, got, want)
		}
		if want := h.ref.cur.copies(v); h.cur.Copies(v) != want || int(c.copies[v]) != want {
			t.Fatalf("%s: video %d has %d copies, cached %d, grid %d", ctx, v, h.cur.Copies(v), c.copies[v], want)
		}
		checkPos(s, cell.v)
		h.touched[s] = true
		if h.seen[s] {
			continue
		}
		h.seen[s] = true
		hl := &c.lists[s]
		if !slices.Equal(hl.on, d.on[s]) || hl.offLen != len(d.off[s]) {
			t.Fatalf("%s: server %d lists differ from the dense oracle's", ctx, s)
		}
		if len(hl.on) > 0 {
			checkPos(s, hl.on[len(hl.on)-1])
		}
	}
	for _, cell := range cells {
		h.seen[cell.s] = false
	}
}

// checkFull compares the working plan and the best with their grids cell
// for cell, both Evaluates bit for bit, the running costs with Cost, and
// the cache: every evaluation component, the per-server loads, each
// video's copies and rate sum, the dirty rows, and the lists of every
// server touched since the last full check.
func (h *lockstep) checkFull(ctx string) {
	t := h.t
	t.Helper()
	bp, l, r := h.BitRateProblem, h.cur, h.ref
	requireSameCells(t, ctx+" cur", l, r.cur)
	want, storage, demand := denseEvaluate(bp, r.cur)
	if got := bp.Evaluate(l); got != want {
		t.Fatalf("%s: Evaluate(cur) = %+v, grid %+v", ctx, got, want)
	}
	if !relClose(bp.costOf(want), h.curCost, 1e-9) {
		t.Fatalf("%s: running cost %.17g, Cost(cur) %.17g", ctx, h.curCost, bp.costOf(want))
	}
	if h.best != nil {
		requireSameCells(t, ctx+" best", h.best, r.best)
		want, _, _ := denseEvaluate(bp, r.best)
		if got := bp.Evaluate(h.best); got != want {
			t.Fatalf("%s: Evaluate(best) = %+v, grid %+v", ctx, got, want)
		}
		if !relClose(bp.costOf(want), h.bestCost, 1e-9) {
			t.Fatalf("%s: best cost %.17g, Cost(best) %.17g", ctx, h.bestCost, bp.costOf(want))
		}
	}
	c := l.cache
	if c == nil {
		return
	}
	checkEvalAgainstScratch(t, bp, l, ctx)
	for s := range storage {
		if !relClose(c.storage[s], storage[s], 1e-9) || !relClose(c.demand[s], demand[s], 1e-9) {
			t.Fatalf("%s: server %d storage/demand cached %g/%g, grid %g/%g", ctx, s, c.storage[s], c.demand[s], storage[s], demand[s])
		}
	}
	flagged := 0
	for v, row := range r.cur.RateIdx {
		rateSum := 0.0
		for _, ri := range row {
			if ri >= 0 {
				rateSum += bp.RateSet[ri]
			}
		}
		if int(c.copies[v]) != r.cur.copies(v) || !relClose(c.rateSum[v], rateSum, 1e-9) {
			t.Fatalf("%s: video %d copies/rate sum cached %d/%g, grid %d/%g", ctx, v, c.copies[v], c.rateSum[v], r.cur.copies(v), rateSum)
		}
		if c.isDirty[v] {
			flagged++
		}
	}
	if len(c.dirty) != flagged {
		t.Fatalf("%s: dirty lists %d rows, %d flagged", ctx, len(c.dirty), flagged)
	}
	h.checkLists(ctx)
}

// checkLists compares the lists of every server touched since the last
// comparison in full.
func (h *lockstep) checkLists(ctx string) {
	h.t.Helper()
	c := h.cur.cache
	for s, touched := range h.touched {
		if !touched {
			continue
		}
		if hl := &c.lists[s]; hl.dense {
			h.dense++
		} else if hl.written.n > 0 {
			h.implicit++
		}
		requireListsMatch(h.t, ctx, c, h.ref.lists, h.ref.cur, s)
		h.touched[s] = false
	}
}

// checkAll is checkFull over every server's lists.
func (h *lockstep) checkAll(ctx string) {
	h.t.Helper()
	for s := range h.touched {
		h.touched[s] = true
	}
	h.checkFull(ctx)
}

// spread makes the cluster heterogeneous: server s gets 1+f(s) times the
// scalar storage, never less, so the initial solution still fits, and
// ½+f(s) times the scalar bandwidth, for f in [0, 1).
func spread(t testing.TB, bp *BitRateProblem, f func(s int) float64) {
	t.Helper()
	p := bp.P
	p.ServerStorage = make([]float64, p.N())
	p.ServerBandwidth = make([]float64, p.N())
	for s := range p.ServerStorage {
		x := f(s)
		p.ServerStorage[s] = (1 + x) * p.StoragePerServer
		p.ServerBandwidth[s] = (0.5 + x) * p.BandwidthPerServer
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseLayoutMatchesDenseOracle is the annealer's one lockstep
// harness: MinimizeDelta drives the production layout, its delta cache and
// its best plan beside the reference at plan_paper's M = 100, N = 8; a mid
// shape, M = 2 000, N = 16, with heterogeneous capacities and Eq. 3's
// imbalance; and plan_scale's M = 20 000, N = 64. The schedule cools from
// 10 over 150 plateaus and MaxSteps stops it inside the next, so each walk
// starts with most commits improving the best, and between two late
// improvements dirties every row or commits more moves than there are rows. Each call checks what
// it touched; the lists are compared after every proposal at plan_paper and
// everything every tenth, less often where one comparison reads up to
// 1.28 M cells. Every walk crosses the switch to dense lists and an
// automatic rebuild at rebuildEvery commits, and rebuilds explicitly near
// its end.
func TestSparseLayoutMatchesDenseOracle(t *testing.T) {
	paper := bitrateProblem(t, 100, 8, 50)
	mid := bitrateProblem(t, 2_000, 16, 4*1.35*2_000/16)
	spread(t, mid, func(s int) float64 { return float64(s) / 16 })
	mid.Obj = core.Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
	scale := bitrateProblem(t, 20_000, 64, 1250)
	scale.P.ArrivalRate = 240.0 / core.Minute
	for _, sh := range []struct {
		name  string
		bp    *BitRateProblem
		steps int
		every cadence
	}{
		{"plan_paper", paper, 100_000, cadence{lists: 1, full: 10}},
		{"mid", mid, 80_000, cadence{lists: 30, full: 1_000}},
		{"plan_scale", scale, 170_000, cadence{lists: 10_000, full: 20_000}},
	} {
		t.Run(sh.name, func(t *testing.T) {
			if raceEnabled && sh.bp == scale {
				t.Skip("one goroutine walks 170 000 proposals; the race detector would only slow it twentyfold")
			}
			t.Parallel() // each shape owns its problem and layouts
			init, err := sh.bp.InitialSolution()
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{InitialTemp: 10, Cooling: 0.95, PlateauSteps: sh.steps / 150, MinTemp: 1e-3, MaxSteps: sh.steps, Seed: int64(len(sh.name))}
			sh.every.explicit = sh.steps - sh.steps/16
			h := runLockstep(t, sh.bp, init, opts, sh.every)
			m := sh.bp.P.M()
			t.Logf("%d proposals: %d commits, %d reverts, %d no-ops, %d syncs, at most %d commits and %d dirty rows between two; %d automatic rebuilds; %d implicit and %d dense list checks",
				h.proposals, h.applies, h.reverts, h.noops, h.syncs, h.longest, h.fullest, h.rebuilds, h.implicit, h.dense)
			if h.proposals != sh.steps || h.proposals%h.plateau == 0 {
				t.Fatalf("stopped after %d proposals, want MaxSteps %d inside a plateau of %d", h.proposals, sh.steps, h.plateau)
			}
			if h.reverts == 0 || h.syncs == 0 || h.explicit != 1 || h.rebuilds == 0 {
				t.Fatal("the walk must revert, improve, and rebuild, explicitly once")
			}
			if h.fullest < m && h.longest <= m {
				t.Fatalf("between two improvements the walk must dirty all %d rows or commit more moves than that", m)
			}
			if h.implicit == 0 || h.dense == 0 {
				t.Fatalf("%d implicit and %d dense full checks; the walk must compare both states", h.implicit, h.dense)
			}
		})
	}
}

// FuzzSparseLayout runs the lockstep harness on generated instances (M from
// 2 to 40, N from 1 to 8, capacities equal or spread, Eq. 2 or Eq. 3) with
// a generated schedule and explicit rebuilds, comparing everything before
// each proposal.
func FuzzSparseLayout(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := stats.NewRNG(seed)
		bp := repairInstance(t, rng)
		if rng.Bernoulli(0.5) {
			spread(t, bp, func(int) float64 { return rng.Float64() })
		}
		if rng.Bernoulli(0.5) {
			bp.Obj = core.Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
		}
		init, err := bp.InitialSolution()
		if err != nil {
			t.Skipf("seed %d: initial solution does not fit: %v", seed, err)
		}
		opts := Options{
			InitialTemp:  math.Pow(10, 1-3*rng.Float64()),
			Cooling:      0.9 + 0.099*rng.Float64(),
			PlateauSteps: 1 + rng.Intn(100),
			MinTemp:      1e-6,
			MaxSteps:     2_000,
			Seed:         seed,
		}
		runLockstep(t, bp, init, opts, cadence{lists: 1, full: 1, explicit: 50 + rng.Intn(500)})
	})
}

// randomLayout fills an m×n layout at the given density with random rates;
// every fifth row is left empty so orphans occur.
func randomLayout(rng *stats.RNG, m, n, rates int, density float64) *BitRateLayout {
	l := NewBitRateLayout(m, n)
	for v := 0; v < m; v++ {
		if v%5 == 4 {
			continue
		}
		for s := 0; s < n; s++ {
			if rng.Bernoulli(density) {
				l.SetRate(v, s, int16(rng.Intn(rates)))
			}
		}
	}
	return l
}

// TestSetupMatchesReference holds Evaluate and the cache's set-up to the
// reference's scans of every cell, bit for bit, on random layouts the
// annealer does not reach — from sparse to nearly full, with orphans and
// violated servers — at the harness's plan_paper and mid shapes: a cache
// built for the layout, and one built for another layout and rebuilt.
func TestSetupMatchesReference(t *testing.T) {
	paper := bitrateProblem(t, 100, 8, 50)
	mid := bitrateProblem(t, 2_000, 16, 4*1.35*2_000/16)
	spread(t, mid, func(s int) float64 { return float64(s) / 16 })
	mid.Obj = core.Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
	for shape, bp := range []*BitRateProblem{paper, mid} {
		m, n := bp.P.M(), bp.P.N()
		rng := stats.NewRNG(int64(50 + shape))
		for trial, density := range []float64{0.05, 0.3, 0.6, 0.95} {
			l := randomLayout(rng, m, n, len(bp.RateSet), density)
			g := denseOf(l)
			lists := newDenseLists(m, n)
			lists.fill(g)
			ctx := fmt.Sprintf("shape %d random %d", shape, trial)
			want, _, _ := denseEvaluate(bp, g)
			if got := bp.Evaluate(l); got != want {
				t.Fatalf("%s: Evaluate = %+v, reference %+v", ctx, got, want)
			}
			requireRebuildMatchesReference(t, ctx, newBRCache(bp, l), l, g, lists)
			other := newBRCache(bp, randomLayout(rng, m, n, len(bp.RateSet), 1-density))
			other.rebuild(l)
			requireRebuildMatchesReference(t, ctx+" over another layout's cache", other, l, g, lists)
		}
	}
}
