package anneal

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// denseLists is brCache's membership state as it was before the holder
// lists: per server an on list, an off list carved from a flat N·M table,
// and every video's position in another, all written in full by each
// rebuild. It is the oracle holderLists must equal index for index.
type denseLists struct {
	on, off, pos [][]int32
}

func newDenseLists(m, n int) *denseLists {
	d := &denseLists{on: make([][]int32, n), off: make([][]int32, n), pos: make([][]int32, n)}
	posFlat := make([]int32, n*m)
	offFlat := make([]int32, n*m)
	for s := 0; s < n; s++ {
		d.pos[s] = posFlat[s*m : (s+1)*m : (s+1)*m]
		d.off[s] = offFlat[s*m : s*m : (s+1)*m]
	}
	return d
}

// fill is the dense rebuild: it collects each server's ascending on list,
// then lays out its off list and positions in one sweep over the catalog,
// filling the runs between the on list's entries.
func (d *denseLists) fill(l *BitRateLayout) {
	m := l.M()
	for s := range d.on {
		d.on[s] = d.on[s][:0]
	}
	for v := 0; v < m; v++ {
		l.EachCopy(v, func(s int, _ int16) {
			d.pos[s][v] = int32(len(d.on[s]))
			d.on[s] = append(d.on[s], int32(v))
		})
	}
	for s := range d.on {
		on, pos, off := d.on[s], d.pos[s], d.off[s][:0]
		next := int32(0)
		for k := 0; k <= len(on); k++ {
			end := int32(m)
			if k < len(on) {
				end = on[k]
			}
			for ; next < end; next++ {
				pos[next] = int32(len(off))
				off = append(off, next)
			}
			next = end + 1
		}
		d.off[s] = off
	}
}

// listMove transfers v from from[s] to to[s] with a swap-remove, keeping
// pos consistent.
func (d *denseLists) listMove(from, to [][]int32, s, v int) {
	fl := from[s]
	i := d.pos[s][v]
	last := fl[len(fl)-1]
	fl[i] = last
	d.pos[s][last] = i
	from[s] = fl[:len(fl)-1]
	d.pos[s][v] = int32(len(to[s]))
	to[s] = append(to[s], int32(v))
}

// move applies one copy-count change: v gains a copy on s when add is set
// and loses it otherwise.
func (d *denseLists) move(s, v int, add bool) {
	if add {
		d.listMove(d.off, d.on, s, v)
	} else {
		d.listMove(d.on, d.off, s, v)
	}
}

// requireListsMatch fails unless server s's holder lists in c equal d's:
// the on list, the off list's length, the video at every index and the
// position of every video; and unless each on-list video's rate index in
// onRI is its copy's in l.
func requireListsMatch(t testing.TB, ctx string, c *brCache, d *denseLists, l *BitRateLayout, s int) {
	t.Helper()
	h := &c.lists[s]
	if !slices.Equal(h.on, d.on[s]) {
		t.Fatalf("%s: server %d on list %v, dense %v", ctx, s, h.on, d.on[s])
	}
	if len(h.onRI) != len(h.on) {
		t.Fatalf("%s: server %d onRI holds %d rate indices for %d videos", ctx, s, len(h.onRI), len(h.on))
	}
	for k, v := range h.on {
		if ri := l.Rate(int(v), s); h.onRI[k] != ri {
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

// listStep is one copy-count change a proposal made: v gained (add) or
// lost a copy on s.
type listStep struct {
	s, v int
	add  bool
}

// lockstep drives one layout's cache through Propose/Apply/Revert and
// explicit rebuilds, and a denseLists oracle through the same list moves,
// read off each proposal's move log.
type lockstep struct {
	bp *BitRateProblem
	l  *BitRateLayout
	c  *brCache
	d  *denseLists

	steps    []listStep
	after    []int16 // scratch: each logged cell's value after its entry, last first
	seen     []bool  // scratch: servers checkTouched has compared
	touched  []bool  // servers whose lists changed since the last full check
	rebuilds int     // automatic rebuilds crossed
	implicit int     // checks of a server in the implicit state with moves written
	dense    int     // checks of a server after its switch to dense arrays
}

func newLockstep(bp *BitRateProblem, l *BitRateLayout) *lockstep {
	h := &lockstep{bp: bp, l: l, c: bp.ensureCache(l), d: newDenseLists(bp.P.M(), bp.P.N())}
	h.d.fill(l)
	h.touched = make([]bool, bp.P.N())
	h.seen = make([]bool, bp.P.N())
	return h
}

// rebuild rebuilds both sides from the layout.
func (h *lockstep) rebuild() {
	h.c.rebuild(h.l)
	h.d.fill(h.l)
}

// step makes one proposal, replays its list moves on the oracle, then
// commits it with probability accept or reverts it, replaying the undo.
// It checks the servers the step touched after the proposal and again after
// the commit or revert, cheaply, and every server touched since the last
// full check in full when full is set.
func (h *lockstep) step(t testing.TB, ctx string, rng *stats.RNG, accept float64, full bool) {
	t.Helper()
	if h.c.applies >= rebuildEvery { // Propose rebuilds before it moves
		h.d.fill(h.l)
		h.rebuilds++
	}
	move, _ := h.bp.Propose(h.l, rng)
	if h.bp.IsNoop(move) {
		return
	}
	// A cell's value after its log entry is the next entry's old value for
	// the same cell, or the layout's: undo the log backwards on the layout
	// to read each, then redo it.
	cells := move.(*brMove).cells
	h.steps = h.steps[:0]
	h.after = h.after[:0]
	for k := len(cells) - 1; k >= 0; k-- {
		cell := cells[k]
		now := h.l.Rate(int(cell.v), int(cell.s))
		h.after = append(h.after, now)
		h.l.set(int(cell.v), int(cell.s), cell.old)
		if (cell.old < 0) != (now < 0) {
			h.steps = append(h.steps, listStep{s: int(cell.s), v: int(cell.v), add: cell.old < 0})
		}
	}
	for k, cell := range cells {
		h.l.set(int(cell.v), int(cell.s), h.after[len(cells)-1-k])
	}
	slices.Reverse(h.steps)
	for _, st := range h.steps {
		h.d.move(st.s, st.v, st.add)
		h.touched[st.s] = true
	}
	h.checkTouched(t, ctx+" proposed", cells)
	if rng.Bernoulli(accept) {
		h.bp.Apply(h.l, move)
	} else {
		h.bp.Revert(h.l, move)
		for k := len(h.steps) - 1; k >= 0; k-- {
			st := h.steps[k]
			h.d.move(st.s, st.v, !st.add)
		}
		h.checkTouched(t, ctx+" reverted", cells)
	}
	if full {
		h.checkFull(t, ctx)
	}
}

// checkTouched compares, on each server the move log names, the on list,
// the off list's length, the position of the on list's last video, and the
// position of every logged video with the off-list entry it points at.
func (h *lockstep) checkTouched(t testing.TB, ctx string, cells []brCell) {
	t.Helper()
	d := h.d
	checkPos := func(s int, v int32) {
		hl := &h.c.lists[s]
		p := hl.posOf(v)
		if p != d.pos[s][v] {
			t.Fatalf("%s: server %d pos[%d] = %d, dense %d", ctx, s, v, p, d.pos[s][v])
		}
		ri := h.l.Rate(int(v), s)
		if ri < 0 && hl.offAt(int(p)) != v {
			t.Fatalf("%s: server %d off[%d] = %d, want %d", ctx, s, p, hl.offAt(int(p)), v)
		}
		if ri >= 0 && hl.onRI[p] != ri {
			t.Fatalf("%s: server %d onRI[%d] = %d, want %d", ctx, s, p, hl.onRI[p], ri)
		}
	}
	for _, cell := range cells {
		s := int(cell.s)
		checkPos(s, cell.v)
		if h.seen[s] {
			continue
		}
		h.seen[s] = true
		hl := &h.c.lists[s]
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

// checkFull compares every server touched since the last full check in full.
func (h *lockstep) checkFull(t testing.TB, ctx string) {
	t.Helper()
	for s, touched := range h.touched {
		if !touched {
			continue
		}
		hl := &h.c.lists[s]
		if hl.dense {
			h.dense++
		} else if hl.written.n > 0 {
			h.implicit++
		}
		requireListsMatch(t, ctx, h.c, h.d, h.l, s)
		h.touched[s] = false
	}
}

// checkAll compares every server in full.
func (h *lockstep) checkAll(t testing.TB, ctx string) {
	t.Helper()
	for s := range h.touched {
		h.touched[s] = true
	}
	h.checkFull(t, ctx)
}

// TestHolderListsMatchDenseOracle drives the holder lists and the dense
// tables they replace in lockstep at three shapes: plan_paper's M = 100,
// N = 8; a mid shape, M = 2 000, N = 16; and plan_scale's M = 20 000,
// N = 64. Each step checks what it touched, and every server a step touched
// is compared in full every fullEvery steps: after each step at plan_paper,
// less often where a full comparison reads up to 1.28 M entries. Every walk
// crosses the switch to dense arrays and ends with an explicit rebuild,
// which must return every server's lists to the implicit state; the
// plan_paper and plan_scale walks also cross an automatic rebuild at
// rebuildEvery commits.
func TestHolderListsMatchDenseOracle(t *testing.T) {
	paper := bitrateProblem(t, 100, 8, 50)
	mid := bitrateProblem(t, 2_000, 16, 4*1.35*2_000/16)
	scale := bitrateProblem(t, 20_000, 64, 1250)
	scale.P.ArrivalRate = 240.0 / core.Minute
	for _, sh := range []struct {
		name      string
		bp        *BitRateProblem
		steps     int
		fullEvery int
		crossing  bool // the walk commits more than rebuildEvery moves
	}{
		{"plan_paper", paper, 100_000, 1, true},
		{"mid", mid, 30_000, 30, false},
		{"plan_scale", scale, 170_000, 10_000, true},
	} {
		t.Run(sh.name, func(t *testing.T) {
			if raceEnabled && sh.bp == scale {
				t.Skip("one goroutine walks 170 000 proposals; the race detector would only slow it twentyfold")
			}
			l, err := sh.bp.InitialSolution()
			if err != nil {
				t.Fatal(err)
			}
			h := newLockstep(sh.bp, l)
			h.checkAll(t, "initial")
			rng := stats.NewRNG(int64(len(sh.name)))
			rebuildAt := sh.steps - sh.steps/16
			for step := 0; step < sh.steps; step++ {
				if step == rebuildAt {
					h.checkAll(t, "before the explicit rebuild")
					h.rebuild()
					for s := range h.c.lists {
						if h.c.lists[s].dense || h.c.lists[s].written.n != 0 {
							t.Fatalf("server %d: rebuild left the lists dense or written", s)
						}
					}
					h.checkAll(t, "after the explicit rebuild")
				}
				h.step(t, fmt.Sprintf("step %d", step), rng, 0.8, (step+1)%sh.fullEvery == 0)
			}
			h.checkAll(t, "final")
			t.Logf("%d automatic rebuilds, %d implicit and %d dense full checks", h.rebuilds, h.implicit, h.dense)
			if h.implicit == 0 || h.dense == 0 {
				t.Fatalf("%d implicit and %d dense full checks; the walk must compare both states", h.implicit, h.dense)
			}
			if sh.crossing && h.rebuilds == 0 {
				t.Fatalf("%d steps never crossed rebuildEvery = %d", sh.steps, rebuildEvery)
			}
		})
	}
}

// FuzzHolderLists runs the lockstep harness on generated instances (M from
// 2 to 40, N from 1 to 8) with a seeded mix of accepted, reverted and
// explicitly rebuilt steps, comparing every server in full after each one.
func FuzzHolderLists(f *testing.F) {
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
		h := newLockstep(bp, l)
		accept := rng.Float64()
		for step := 0; step < 2_000; step++ {
			if rng.Bernoulli(0.002) {
				h.rebuild()
				h.checkAll(t, fmt.Sprintf("seed %d rebuild at step %d", seed, step))
			}
			h.step(t, fmt.Sprintf("seed %d step %d", seed, step), rng, accept, true)
		}
	})
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
