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

// denseLayout is BitRateLayout as it was before it stored each video's
// copies: an M×N grid of rate indices, -1 where a server holds no copy,
// whose rows are windows into one backing array. It is the oracle the
// sparse layout must equal cell for cell.
type denseLayout struct {
	RateIdx [][]int16
}

func newDenseGrid(m, n int) *denseLayout {
	d := &denseLayout{RateIdx: make([][]int16, m)}
	flat := make([]int16, m*n)
	for v := range d.RateIdx {
		d.RateIdx[v] = flat[v*n : (v+1)*n : (v+1)*n]
	}
	return d
}

// newDenseLayout returns an empty m×n grid.
func newDenseLayout(m, n int) *denseLayout {
	d := newDenseGrid(m, n)
	for _, row := range d.RateIdx {
		for s := range row {
			row[s] = -1
		}
	}
	return d
}

// denseOf copies l into a grid.
func denseOf(l *BitRateLayout) *denseLayout {
	d := newDenseLayout(l.M(), l.N())
	for v := range d.RateIdx {
		l.EachCopy(v, func(s int, ri int16) { d.RateIdx[v][s] = ri })
	}
	return d
}

func (d *denseLayout) clone() *denseLayout {
	m, n := len(d.RateIdx), 0
	if m > 0 {
		n = len(d.RateIdx[0])
	}
	c := newDenseGrid(m, n)
	for v, row := range d.RateIdx {
		copy(c.RateIdx[v], row)
	}
	return c
}

func (d *denseLayout) copies(v int) int {
	c := 0
	for _, ri := range d.RateIdx[v] {
		if ri >= 0 {
			c++
		}
	}
	return c
}

// denseEvaluate is Evaluate over the grid: it reads each row once,
// collecting the row's holders, and touches the per-server sums only at
// those.
func denseEvaluate(bp *BitRateProblem, d *denseLayout) Eval {
	var e Eval
	p := bp.P
	m, n := p.M(), p.N()
	peak := p.PeakRequests()
	storage := make([]float64, n)
	demand := make([]float64, n)
	holders := make([]int, 0, n)
	totalCopies := 0
	for v := 0; v < m; v++ {
		holders = holders[:0]
		rateSum := 0.0
		for s, ri := range d.RateIdx[v] {
			if ri >= 0 {
				holders = append(holders, s)
				rateSum += bp.RateSet[ri]
			}
		}
		copies := len(holders)
		if copies == 0 {
			e.Orphans++
			continue
		}
		totalCopies += copies
		e.MeanRateMbps += rateSum / float64(copies) / core.Mbps
		w := p.Catalog[v].Popularity * peak / float64(copies)
		for _, s := range holders {
			ri := d.RateIdx[v][s]
			storage[s] += bp.copySizeBytes(v, ri)
			demand[s] += w * bp.RateSet[ri]
		}
	}
	e.MeanRateMbps /= float64(m)
	e.Degree = float64(totalCopies) / float64(m)
	for s := 0; s < n; s++ {
		if over := storage[s] - p.StorageOf(s); over > 0 {
			e.StorageViolation += over
		}
		if over := demand[s] - p.BandwidthOf(s); over > 0 {
			e.BandwidthViolation += over
		}
	}
	bp.score(&e, demand)
	return e
}

// denseRebuild is brCache.rebuild over the grid: it scans every row,
// collecting its holders, and touches the per-server state only at those.
func denseRebuild(c *brCache, d *denseLayout) {
	bp := c.bp
	m, n := bp.P.M(), bp.P.N()
	for s := 0; s < n; s++ {
		c.storage[s] = 0
		c.demand[s] = 0
		c.lists[s].on = c.lists[s].on[:0]
		c.lists[s].onRI = c.lists[s].onRI[:0]
	}
	c.qualitySum = 0
	c.totalCopies = 0
	c.orphans = 0
	holders := make([]int, 0, n)
	for v := 0; v < m; v++ {
		holders = holders[:0]
		rateSum := 0.0
		for s, ri := range d.RateIdx[v] {
			if ri >= 0 {
				holders = append(holders, s)
				rateSum += bp.RateSet[ri]
				c.lists[s].on = append(c.lists[s].on, int32(v))
				c.lists[s].onRI = append(c.lists[s].onRI, ri)
			}
		}
		copies := int32(len(holders))
		c.copies[v] = copies
		c.rateSum[v] = rateSum
		if copies == 0 {
			c.orphans++
			continue
		}
		c.totalCopies += int(copies)
		c.qualitySum += rateSum / float64(copies)
		w := c.popPeak[v] / float64(copies)
		for _, s := range holders {
			ri := d.RateIdx[v][s]
			c.storage[s] += bp.copySizeBytes(v, ri)
			c.demand[s] += w * bp.RateSet[ri]
		}
	}
	for s := range c.lists {
		c.lists[s].reset(m)
	}
	c.violCount = 0
	for s := 0; s < n; s++ {
		c.isViol[s] = c.storage[s] > bp.P.StorageOf(s) || c.demand[s] > bp.P.BandwidthOf(s)
		if c.isViol[s] {
			c.violCount++
		}
	}
	c.applies = 0
	c.cost = bp.costOf(c.eval())
}

// requireSameCells fails unless l and d agree on every cell, every video's
// copy count and the total.
func requireSameCells(t testing.TB, ctx string, l *BitRateLayout, d *denseLayout) {
	t.Helper()
	if l.M() != len(d.RateIdx) {
		t.Fatalf("%s: layout covers %d videos, grid %d", ctx, l.M(), len(d.RateIdx))
	}
	total := 0
	for v, row := range d.RateIdx {
		if l.N() != len(row) {
			t.Fatalf("%s: layout covers %d servers, grid %d", ctx, l.N(), len(row))
		}
		for s, ri := range row {
			if got := l.Rate(v, s); got != ri {
				t.Fatalf("%s: cell (%d, %d) = %d, grid %d", ctx, v, s, got, ri)
			}
		}
		c := d.copies(v)
		if got := l.Copies(v); got != c {
			t.Fatalf("%s: video %d has %d copies, grid %d", ctx, v, got, c)
		}
		total += c
	}
	if got := l.TotalCopies(); got != total {
		t.Fatalf("%s: %d copies in all, grid %d", ctx, got, total)
	}
}

// requireRebuildMatchesDense fails unless rebuilding c from l leaves the
// state a rebuild from the grid d does: the same accumulators bit for bit
// and the same on list and rate indices on every server.
func requireRebuildMatchesDense(t testing.TB, ctx string, c *brCache, l *BitRateLayout, d *denseLayout) {
	t.Helper()
	c.rebuild(l)
	want := newBRCache(c.bp, l)
	denseRebuild(want, d)
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
			t.Fatalf("%s: rebuilt %s differs from the grid's", ctx, f.name)
		}
	}
	for s := range c.lists {
		if !slices.Equal(c.lists[s].on, want.lists[s].on) || !slices.Equal(c.lists[s].onRI, want.lists[s].onRI) {
			t.Fatalf("%s: server %d holder lists differ from the grid's", ctx, s)
		}
	}
}

// layoutLockstep drives a sparse working layout and its best copy through
// Propose/Apply/Revert/Sync, and dense grids through the same cell
// changes, read off each proposal's move log: a proposal's first cell is an
// add or a raise, one rate index up, and every repair cell after it a lower
// or an eviction, one down (an evicted copy is at index 0).
type layoutLockstep struct {
	bp         *BitRateProblem
	cur, best  *BitRateLayout
	dcur, dbst *denseLayout

	dirty    []bool // grid rows committed moves changed since the last Sync
	rows     []int  // the same rows, listed once
	rebuilds int    // automatic rebuilds crossed
	syncs    int
}

func newLayoutLockstep(bp *BitRateProblem, l *BitRateLayout) *layoutLockstep {
	h := &layoutLockstep{bp: bp, cur: bp.Clone(l), dcur: denseOf(l), dirty: make([]bool, bp.P.M())}
	h.best = bp.Clone(h.cur)
	h.dbst = h.dcur.clone()
	return h
}

// step makes one proposal and replays it on the grid, then commits it with
// probability accept or reverts it, undoing the replay, and Syncs after a
// commit with probability sync. It checks the logged cells and their
// videos' copy counts after the proposal and after the commit or revert,
// and everything when full is set.
func (h *layoutLockstep) step(t testing.TB, ctx string, rng *stats.RNG, accept, sync float64, full bool) {
	t.Helper()
	if h.cur.cache != nil && h.cur.cache.applies >= rebuildEvery { // Propose rebuilds before it moves
		h.rebuilds++
	}
	move, _ := h.bp.Propose(h.cur, rng)
	cells := move.(*brMove).cells
	for k, cell := range cells {
		ri := cell.old - 1
		if k == 0 {
			ri = cell.old + 1
		}
		h.dcur.RateIdx[cell.v][cell.s] = ri
	}
	h.checkCells(t, ctx+" proposed", cells)
	switch {
	case h.bp.IsNoop(move):
	case rng.Bernoulli(accept):
		h.bp.Apply(h.cur, move)
		for _, cell := range cells {
			if !h.dirty[cell.v] {
				h.dirty[cell.v] = true
				h.rows = append(h.rows, int(cell.v))
			}
		}
		if rng.Bernoulli(sync) {
			h.sync()
		}
	default:
		h.bp.Revert(h.cur, move)
		for k := len(cells) - 1; k >= 0; k-- {
			h.dcur.RateIdx[cells[k].v][cells[k].s] = cells[k].old
		}
		h.checkCells(t, ctx+" reverted", cells)
	}
	if full {
		h.checkFull(t, ctx)
	}
}

// sync brings both bests up to date: the sparse one by Sync, the grid by
// copying the rows changed since the last one.
func (h *layoutLockstep) sync() {
	h.bp.Sync(h.best, h.cur)
	for _, v := range h.rows {
		copy(h.dbst.RateIdx[v], h.dcur.RateIdx[v])
		h.dirty[v] = false
	}
	h.rows = h.rows[:0]
	h.syncs++
}

// checkCells compares every logged cell and the copy count of every logged
// video.
func (h *layoutLockstep) checkCells(t testing.TB, ctx string, cells []brCell) {
	t.Helper()
	for _, cell := range cells {
		v, s := int(cell.v), int(cell.s)
		if got, want := h.cur.Rate(v, s), h.dcur.RateIdx[v][s]; got != want {
			t.Fatalf("%s: cell (%d, %d) = %d, grid %d", ctx, v, s, got, want)
		}
		if got, want := h.cur.Copies(v), h.dcur.copies(v); got != want {
			t.Fatalf("%s: video %d has %d copies, grid %d", ctx, v, got, want)
		}
	}
}

// checkFull compares both layouts with their grids cell for cell and both
// Evaluates bit for bit.
func (h *layoutLockstep) checkFull(t testing.TB, ctx string) {
	t.Helper()
	requireSameCells(t, ctx+" cur", h.cur, h.dcur)
	requireSameCells(t, ctx+" best", h.best, h.dbst)
	if got, want := h.bp.Evaluate(h.cur), denseEvaluate(h.bp, h.dcur); got != want {
		t.Fatalf("%s: Evaluate(cur) = %+v, grid %+v", ctx, got, want)
	}
	if got, want := h.bp.Evaluate(h.best), denseEvaluate(h.bp, h.dbst); got != want {
		t.Fatalf("%s: Evaluate(best) = %+v, grid %+v", ctx, got, want)
	}
}

// TestSparseLayoutMatchesDenseOracle drives the sparse layout and the grid
// it replaces in lockstep at plan_paper's M = 100, N = 8, a mid shape,
// M = 2 000, N = 16, and plan_scale's M = 20 000, N = 64. Each step checks
// the cells it logged, and everything is compared every fullEvery steps:
// every tenth step at plan_paper, less often where one comparison reads up
// to 1.28 M cells twice. Every walk commits more than rebuildEvery moves,
// and near its end rebuilds explicitly, comparing the rebuilt cache with one
// rebuilt from the grid.
func TestSparseLayoutMatchesDenseOracle(t *testing.T) {
	paper := bitrateProblem(t, 100, 8, 50)
	mid := bitrateProblem(t, 2_000, 16, 4*1.35*2_000/16)
	scale := bitrateProblem(t, 20_000, 64, 1250)
	scale.P.ArrivalRate = 240.0 / core.Minute
	for _, sh := range []struct {
		name      string
		bp        *BitRateProblem
		steps     int
		fullEvery int
	}{
		{"plan_paper", paper, 100_000, 10},
		{"mid", mid, 90_000, 1_000},
		{"plan_scale", scale, 170_000, 20_000},
	} {
		t.Run(sh.name, func(t *testing.T) {
			if raceEnabled && sh.bp == scale {
				t.Skip("one goroutine walks 170 000 proposals; the race detector would only slow it twentyfold")
			}
			l, err := sh.bp.InitialSolution()
			if err != nil {
				t.Fatal(err)
			}
			h := newLayoutLockstep(sh.bp, l)
			h.checkFull(t, "initial")
			rng := stats.NewRNG(int64(len(sh.name)))
			for step := 0; step < sh.steps; step++ {
				if step == sh.steps-sh.steps/16 {
					ctx := fmt.Sprintf("explicit rebuild at step %d", step)
					h.checkFull(t, ctx)
					requireRebuildMatchesDense(t, ctx, h.cur.cache, h.cur, h.dcur)
				}
				h.step(t, fmt.Sprintf("step %d", step), rng, 0.8, 0.01, (step+1)%sh.fullEvery == 0)
			}
			h.sync()
			h.checkFull(t, "final")
			t.Logf("%d automatic rebuilds, %d syncs, %d copies at the end", h.rebuilds, h.syncs, h.cur.TotalCopies())
			if h.rebuilds == 0 {
				t.Fatalf("%d steps never crossed rebuildEvery = %d", sh.steps, rebuildEvery)
			}
		})
	}
}

// FuzzSparseLayout runs the lockstep harness on generated instances (M from
// 2 to 40, N from 1 to 8) with a seeded mix of accepted, reverted, synced
// and explicitly rebuilt steps, comparing everything after each one.
func FuzzSparseLayout(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := stats.NewRNG(seed)
		bp := repairInstance(t, rng)
		l, err := bp.InitialSolution()
		if err != nil {
			t.Skipf("seed %d: initial solution does not fit: %v", seed, err)
		}
		h := newLayoutLockstep(bp, l)
		accept, sync := rng.Float64(), rng.Float64()
		for step := 0; step < 2_000; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			if h.cur.cache != nil && rng.Bernoulli(0.002) {
				requireRebuildMatchesDense(t, ctx+" rebuild", h.cur.cache, h.cur, h.dcur)
			}
			h.step(t, ctx, rng, accept, sync, true)
		}
	})
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
