package anneal

import (
	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// rebuildEvery bounds floating-point drift in the cached accumulators: after
// this many committed moves the cache is recomputed from the layout. The
// rebuild is O(M·N) but amortizes to well under one cell visit per proposal.
const rebuildEvery = 1 << 16

// brCell records one cell's pre-change rate index so a move can be undone.
type brCell struct {
	v, s int32
	old  int16
}

// brMove is the delta path's move log: every cell the proposal (including
// its repair actions) touched, in application order, plus the cached cost
// before the proposal. It is a single scratch buffer per cache — the engine
// never holds two outstanding moves.
type brMove struct {
	cells   []brCell
	preCost float64
}

// brCache is the incremental evaluation state of one BitRateLayout under one
// BitRateProblem. It mirrors everything Evaluate rescans — per-server
// storage and expected peak bandwidth demand, per-video copy counts and rate
// sums, the Eq. 1 quality accumulator — and keeps all of it current in O(1)
// per touched cell (plus the O(copies) demand ripple when a video's copy
// count changes, since w_i = p_i·λ·T/r_i shifts on every server holding it).
//
// Storage accumulators are exact for integer-valued copy sizes (adds and
// removes of exactly representable byte counts below 2⁵³ round-trip without
// error); demand and quality accumulators carry rounding-level drift that
// the periodic rebuild resets and the differential tests bound at 1e-9
// relative. Feasibility bookkeeping (isViol/violCount) compares current
// loads against capacities directly — never accumulated excess sums — so it
// cannot drift across a raise/repair cycle.
type brCache struct {
	bp *BitRateProblem

	// Immutable per-video precomputation.
	popPeak []float64 // p_v · λ · T

	// Per-server loads and feasibility.
	storage   []float64 // bytes used
	demand    []float64 // expected peak bandwidth demand, bits/s
	isViol    []bool    // storage or demand over capacity
	violCount int

	// Per-video aggregates.
	copies  []int32
	rateSum []float64 // Σ rates of v's copies, bits/s

	// Eq. 1 accumulators.
	qualitySum  float64 // Σ_v rateSum_v / copies_v over videos with copies
	totalCopies int
	orphans     int

	// Membership lists per server: on[s] holds the videos with a copy on s,
	// off[s] the rest; pos[s][v] is v's index in whichever list it is in.
	// They make "pick a uniform random (non-)resident video" O(1) instead
	// of the O(M) classification scan Neighbor pays per proposal.
	// pos and off are carved out of two flat N·M arrays (a server's off
	// list can hold the whole catalog), so rebuild never grows them; on
	// lists are short and grow by append.
	on  [][]int32
	off [][]int32
	pos [][]int32

	// Best-so-far tracking: the video rows committed moves changed since
	// the last Sync, each listed once (isDirty dedups), so dirty never
	// outgrows its initial capacity M.
	dirty   []int32
	isDirty []bool

	// Scratch buffers.
	mv        brMove
	lowerable []int32
	evictable []int32
	applies   int     // committed moves since the last rebuild
	cost      float64 // cached cost of the current layout
}

// newBRCache builds the cache for l from scratch.
func newBRCache(bp *BitRateProblem, l *BitRateLayout) *brCache {
	m, n := bp.P.M(), bp.P.N()
	c := &brCache{
		bp:      bp,
		popPeak: make([]float64, m),
		storage: make([]float64, n),
		demand:  make([]float64, n),
		isViol:  make([]bool, n),
		copies:  make([]int32, m),
		rateSum: make([]float64, m),
		on:      make([][]int32, n),
		off:     make([][]int32, n),
		pos:     make([][]int32, n),
		dirty:   make([]int32, 0, m),
		isDirty: make([]bool, m),
	}
	for v := 0; v < m; v++ {
		c.popPeak[v] = bp.P.PeakWeight(v)
	}
	posFlat := make([]int32, n*m)
	offFlat := make([]int32, n*m)
	for s := 0; s < n; s++ {
		c.pos[s] = posFlat[s*m : (s+1)*m : (s+1)*m]
		c.off[s] = offFlat[s*m : s*m : (s+1)*m]
	}
	c.rebuild(l)
	return c
}

// rebuild recomputes every accumulator from the layout, resetting drift. It
// reads each RateIdx row once, collecting the row's holders, and touches the
// per-server state only at those; then it lays out each server's off list
// and positions in one sequential sweep over the catalog, filling the runs
// between the entries of its (ascending) on list.
func (c *brCache) rebuild(l *BitRateLayout) {
	bp := c.bp
	m, n := bp.P.M(), bp.P.N()
	for s := 0; s < n; s++ {
		c.storage[s] = 0
		c.demand[s] = 0
		c.on[s] = c.on[s][:0]
	}
	c.qualitySum = 0
	c.totalCopies = 0
	c.orphans = 0
	holders := make([]int, 0, n)
	for v := 0; v < m; v++ {
		holders = holders[:0]
		rateSum := 0.0
		for s, ri := range l.RateIdx[v] {
			if ri >= 0 {
				holders = append(holders, s)
				rateSum += bp.RateSet[ri]
				c.pos[s][v] = int32(len(c.on[s]))
				c.on[s] = append(c.on[s], int32(v))
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
			ri := l.RateIdx[v][s]
			c.storage[s] += bp.copySizeBytes(v, ri)
			c.demand[s] += w * bp.RateSet[ri]
		}
	}
	for s := 0; s < n; s++ {
		on, pos, off := c.on[s], c.pos[s], c.off[s][:0]
		next := int32(0)
		for k := 0; k <= len(on); k++ {
			end := int32(m) // past the last holder, the run reaches the catalog's end
			if k < len(on) {
				end = on[k]
			}
			for ; next < end; next++ {
				pos[next] = int32(len(off))
				off = append(off, next)
			}
			next = end + 1
		}
		c.off[s] = off
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

// maybeRebuild resets accumulated float drift once enough moves committed.
// It must only run between proposals (Propose calls it first), never while
// a move is outstanding.
func (c *brCache) maybeRebuild(l *BitRateLayout) {
	if c.applies >= rebuildEvery {
		c.rebuild(l)
	}
}

// setCell changes one (video, server) cell to the given rate index (-1 =
// no copy), updating every accumulator. With record set the pre-change
// value is appended to the move log so Revert can undo it. Cost: O(1) for
// rate-only changes; O(copies of v) when the copy count changes, for the
// cross-server demand ripple.
func (c *brCache) setCell(l *BitRateLayout, v, s int, newRI int16, record bool) {
	old := l.RateIdx[v][s]
	if old == newRI {
		return
	}
	if record {
		c.mv.cells = append(c.mv.cells, brCell{v: int32(v), s: int32(s), old: old})
	}
	bp := c.bp
	n := bp.P.N()

	var oldSize, oldRate, newSize, newRate float64
	if old >= 0 {
		oldSize = bp.copySizeBytes(v, old)
		oldRate = bp.RateSet[old]
	}
	if newRI >= 0 {
		newSize = bp.copySizeBytes(v, newRI)
		newRate = bp.RateSet[newRI]
	}
	if d := newSize - oldSize; d != 0 {
		c.storage[s] += d
	}

	cOld := int(c.copies[v])
	cNew := cOld
	if old < 0 {
		cNew++
	}
	if newRI < 0 {
		cNew--
	}
	rOld := c.rateSum[v]
	rNew := rOld - oldRate + newRate

	if cNew == cOld {
		// Rate change on an existing copy: only server s's demand moves.
		w := c.popPeak[v] / float64(cOld)
		c.demand[s] += w * (newRate - oldRate)
		c.refreshViol(s)
	} else {
		// Copy count changed: w_v shifts on every server holding v.
		wOld, wNew := 0.0, 0.0
		if cOld > 0 {
			wOld = c.popPeak[v] / float64(cOld)
		}
		if cNew > 0 {
			wNew = c.popPeak[v] / float64(cNew)
		}
		for i := 0; i < n; i++ {
			ri := l.RateIdx[v][i]
			if i == s {
				c.demand[i] += wNew*newRate - wOld*oldRate
				c.refreshViol(i)
				continue
			}
			if ri < 0 {
				continue
			}
			c.demand[i] += bp.RateSet[ri] * (wNew - wOld)
			c.refreshViol(i)
		}
		if old < 0 {
			c.listMove(c.off, c.on, s, v)
			c.totalCopies++
		} else {
			c.listMove(c.on, c.off, s, v)
			c.totalCopies--
		}
	}
	l.RateIdx[v][s] = newRI
	c.copies[v] = int32(cNew)
	c.rateSum[v] = rNew

	oldQ, newQ := 0.0, 0.0
	if cOld > 0 {
		oldQ = rOld / float64(cOld)
	}
	if cNew > 0 {
		newQ = rNew / float64(cNew)
	}
	c.qualitySum += newQ - oldQ
	if cOld == 0 && cNew > 0 {
		c.orphans--
	}
	if cOld > 0 && cNew == 0 {
		c.orphans++
	}
}

// refreshViol re-derives server s's feasibility flag from its current loads
// — an exact comparison, immune to accumulated-excess drift — and keeps the
// violated-server count in step.
func (c *brCache) refreshViol(s int) {
	viol := c.storage[s] > c.bp.P.StorageOf(s) || c.demand[s] > c.bp.P.BandwidthOf(s)
	if viol == c.isViol[s] {
		return
	}
	c.isViol[s] = viol
	if viol {
		c.violCount++
	} else {
		c.violCount--
	}
}

// listMove transfers v from from[s] to to[s] with a swap-remove, keeping
// pos consistent. O(1).
func (c *brCache) listMove(from, to [][]int32, s, v int) {
	fl := from[s]
	i := c.pos[s][v]
	last := fl[len(fl)-1]
	fl[i] = last
	c.pos[s][last] = i
	from[s] = fl[:len(fl)-1]
	c.pos[s][v] = int32(len(to[s]))
	to[s] = append(to[s], int32(v))
}

// eval assembles an Eval from the cached accumulators. O(N): the per-server
// violation and imbalance terms scan the server vector; everything per-video
// is already aggregated.
func (c *brCache) eval() Eval {
	bp := c.bp
	p := bp.P
	m, n := p.M(), p.N()
	var e Eval
	e.Orphans = c.orphans
	e.MeanRateMbps = c.qualitySum / core.Mbps / float64(m)
	e.Degree = float64(c.totalCopies) / float64(m)
	for s := 0; s < n; s++ {
		if over := c.storage[s] - p.StorageOf(s); over > 0 {
			e.StorageViolation += over
		}
		if over := c.demand[s] - p.BandwidthOf(s); over > 0 {
			e.BandwidthViolation += over
		}
	}
	e.Imbalance = core.ImbalanceMax(c.demand)
	obj := bp.objective()
	e.Objective = e.MeanRateMbps + obj.Alpha*e.Degree - obj.Beta*e.Imbalance
	return e
}

// repair is the delta path's feasibility restoration: the same randomized
// reduction policy as BitRateProblem.repair, but driven by the cached
// per-server loads and the incrementally tracked violated-server count, so
// one action costs O(copies on the violated server) instead of a full
// serverLoad rescan of every server.
func (c *brCache) repair(l *BitRateLayout, rng *stats.RNG) {
	bp := c.bp
	m, n := bp.P.M(), bp.P.N()
	maxActions := m*n*len(bp.RateSet) + m*n
	for action := 0; action < maxActions && c.violCount > 0; action++ {
		violated := -1
		for s := 0; s < n; s++ {
			if c.isViol[s] {
				violated = s
				break
			}
		}
		c.lowerable = c.lowerable[:0]
		c.evictable = c.evictable[:0]
		for _, v := range c.on[violated] {
			ri := l.RateIdx[v][violated]
			if ri > 0 {
				c.lowerable = append(c.lowerable, v)
			} else if c.copies[v] > 1 {
				c.evictable = append(c.evictable, v)
			}
		}
		total := len(c.lowerable) + len(c.evictable)
		if total == 0 {
			return // nothing reducible; the cost penalty handles the rest
		}
		k := rng.Intn(total)
		if k < len(c.lowerable) {
			v := int(c.lowerable[k])
			c.setCell(l, v, violated, l.RateIdx[v][violated]-1, true)
		} else {
			c.setCell(l, int(c.evictable[k-len(c.lowerable)]), violated, -1, true)
		}
	}
}
