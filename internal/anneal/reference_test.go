package anneal

import (
	"fmt"
	"testing"

	"vodcluster/internal/core"
)

// This file is the §4.3 annealer's state held the plain way, the oracle its
// lockstep harness (lockstep_test.go) compares the production state with:
// the layout as an M×N grid, Evaluate and the cache's rebuild as scans of
// every cell, each server's on and off lists with every video's position as
// dense tables, and a best plan copied from the working one on every
// improvement.

// denseLayout is a layout as an M×N grid of rate indices, -1 where a server
// holds no copy, whose rows are windows into one backing array.
type denseLayout struct {
	RateIdx [][]int16
}

// newDenseLayout returns an empty m×n grid.
func newDenseLayout(m, n int) *denseLayout {
	d := &denseLayout{RateIdx: make([][]int16, m)}
	flat := make([]int16, m*n)
	for i := range flat {
		flat[i] = -1
	}
	for v := range d.RateIdx {
		d.RateIdx[v] = flat[v*n : (v+1)*n : (v+1)*n]
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

// snapshotRateIdx copies the layout into an M×N matrix of rate indices for
// bit-exact comparison.
func snapshotRateIdx(l *BitRateLayout) [][]int16 { return denseOf(l).RateIdx }

func (d *denseLayout) copies(v int) int {
	c := 0
	for _, ri := range d.RateIdx[v] {
		if ri >= 0 {
			c++
		}
	}
	return c
}

// denseEvaluate is Evaluate over the grid, scanning every cell of a row
// once for its rate sum and once for the per-server sums. It also returns
// those sums: each server's storage and expected peak bandwidth demand.
func denseEvaluate(bp *BitRateProblem, d *denseLayout) (e Eval, storage, demand []float64) {
	p := bp.P
	m, n := p.M(), p.N()
	peak := p.PeakRequests()
	storage = make([]float64, n)
	demand = make([]float64, n)
	totalCopies := 0
	for v, row := range d.RateIdx {
		copies, rateSum := 0, 0.0
		for _, ri := range row {
			if ri >= 0 {
				copies++
				rateSum += bp.RateSet[ri]
			}
		}
		if copies == 0 {
			e.Orphans++
			continue
		}
		totalCopies += copies
		e.MeanRateMbps += rateSum / float64(copies) / core.Mbps
		w := p.Catalog[v].Popularity * peak / float64(copies)
		for s, ri := range row {
			if ri >= 0 {
				storage[s] += bp.copySizeBytes(v, ri)
				demand[s] += w * bp.RateSet[ri]
			}
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
	return e, storage, demand
}

// denseRebuild is brCache.rebuild over the grid: it sets c's accumulators
// by a scan of every cell and leaves c's lists alone.
func denseRebuild(c *brCache, d *denseLayout) {
	bp := c.bp
	m, n := bp.P.M(), bp.P.N()
	for s := 0; s < n; s++ {
		c.storage[s] = 0
		c.demand[s] = 0
	}
	c.qualitySum = 0
	c.totalCopies = 0
	c.orphans = 0
	for v := 0; v < m; v++ {
		copies, rateSum := int32(0), 0.0
		for _, ri := range d.RateIdx[v] {
			if ri >= 0 {
				copies++
				rateSum += bp.RateSet[ri]
			}
		}
		c.copies[v] = copies
		c.rateSum[v] = rateSum
		if copies == 0 {
			c.orphans++
			continue
		}
		c.totalCopies += int(copies)
		c.qualitySum += rateSum / float64(copies)
		w := c.popPeak[v] / float64(copies)
		for s, ri := range d.RateIdx[v] {
			if ri >= 0 {
				c.storage[s] += bp.copySizeBytes(v, ri)
				c.demand[s] += w * bp.RateSet[ri]
			}
		}
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

// denseLists is each server's membership as dense tables: the on list, the
// off list and every video's position in whichever list it is in, all
// written in full by fill and kept by swap-remove and append, the order
// holderLists must reproduce index for index.
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

// fill is the rebuild: every server's on and off lists in ascending video
// order, from a scan of every cell.
func (d *denseLists) fill(g *denseLayout) {
	for s := range d.on {
		d.on[s] = d.on[s][:0]
		d.off[s] = d.off[s][:0]
	}
	for v, row := range g.RateIdx {
		for s, ri := range row {
			list := &d.off[s]
			if ri >= 0 {
				list = &d.on[s]
			}
			d.pos[s][v] = int32(len(*list))
			*list = append(*list, int32(v))
		}
	}
}

// move transfers v between server s's lists with a swap-remove: from off to
// on when add is set, from on to off otherwise.
func (d *denseLists) move(s, v int, add bool) {
	from, to := &d.on[s], &d.off[s]
	if add {
		from, to = to, from
	}
	fl := *from
	i := d.pos[s][v]
	last := fl[len(fl)-1]
	fl[i] = last
	d.pos[s][last] = i
	*from = fl[:len(fl)-1]
	d.pos[s][v] = int32(len(*to))
	*to = append(*to, int32(v))
}

// reference is the annealer's working plan, its membership lists and its
// best plan, kept the plain way. Its best is a copy of its working plan
// taken at every improvement; it copies the rows changed since the last
// one, which gives the same grid as a full clone.
type reference struct {
	cur, best *denseLayout
	lists     *denseLists
	changed   []bool // rows of cur changed since the last improvement
	rows      []int  // the same rows, listed once
}

func newReference(l *BitRateLayout) *reference {
	r := &reference{cur: denseOf(l), best: denseOf(l), lists: newDenseLists(l.M(), l.N()), changed: make([]bool, l.M())}
	r.lists.fill(r.cur)
	return r
}

// set writes one cell of the working plan, moving the video between the
// server's lists when its copy comes or goes.
func (r *reference) set(v, s int, ri int16) {
	old := r.cur.RateIdx[v][s]
	r.cur.RateIdx[v][s] = ri
	if (old < 0) != (ri < 0) {
		r.lists.move(s, v, old < 0)
	}
	if !r.changed[v] {
		r.changed[v] = true
		r.rows = append(r.rows, v)
	}
}

// improve makes the best plan a copy of the working one and returns the
// rows it copied.
func (r *reference) improve() []int {
	rows := r.rows
	for _, v := range rows {
		copy(r.best.RateIdx[v], r.cur.RateIdx[v])
		r.changed[v] = false
	}
	r.rows = r.rows[:0]
	return rows
}

// requireSameCells fails unless l and d agree on every cell, and so on
// every video's copy count and the total.
func requireSameCells(t testing.TB, ctx string, l *BitRateLayout, d *denseLayout) {
	t.Helper()
	if l.M() != len(d.RateIdx) || l.N() != len(d.RateIdx[0]) {
		t.Fatalf("%s: layout covers %d×%d cells, grid %d×%d", ctx, l.M(), l.N(), len(d.RateIdx), len(d.RateIdx[0]))
	}
	total := 0
	for v := range d.RateIdx {
		copies, diff := diffRow(l, d, v)
		if diff != "" {
			t.Fatalf("%s: %s", ctx, diff)
		}
		total += copies
	}
	if got := l.TotalCopies(); got != total {
		t.Fatalf("%s: %d copies in all, grid %d", ctx, got, total)
	}
}

// diffRow walks video v's copies in l beside its row in d and returns the
// row's copy count and the first difference, in a cell or in the number of
// copies, or "" when there is none.
func diffRow(l *BitRateLayout, d *denseLayout, v int) (int, string) {
	row, k := l.rows[v], 0
	for s, ri := range d.RateIdx[v] {
		got := int16(-1)
		if k < len(row) && int(row[k].s) == s {
			got = row[k].ri
			k++
		}
		if got != ri {
			return k, fmt.Sprintf("cell (%d, %d) = %d, grid %d", v, s, got, ri)
		}
	}
	if k != l.Copies(v) {
		return k, fmt.Sprintf("video %d has %d copies, grid %d", v, l.Copies(v), k)
	}
	return k, ""
}
