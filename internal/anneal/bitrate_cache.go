package anneal

import (
	"math/bits"
	"slices"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// rebuildEvery bounds floating-point drift in the cached accumulators: after
// this many committed moves the cache is recomputed from the layout. The
// rebuild is O(M + N + copies) and amortizes to well under one copy visit
// per proposal.
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

	// Membership lists, one per server: the videos with a copy on s with
	// their rate indices, the rest, and each video's index in whichever list
	// it is in. They make "pick a uniform random (non-)resident video" O(1)
	// instead of an O(M) classification scan per proposal.
	// Only the holders are stored up front; see holderLists.
	lists []holderLists

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
		lists:   make([]holderLists, n),
		dirty:   make([]int32, 0, m),
		isDirty: make([]bool, m),
	}
	for v := 0; v < m; v++ {
		c.popPeak[v] = bp.P.PeakWeight(v)
	}
	// Size each server's on list for its holders and a quarter more, so
	// rebuild and the first moves append without regrowing them.
	held := make([]int, n)
	for _, row := range l.rows {
		for _, cp := range row {
			held[cp.s]++
		}
	}
	for s, k := range held {
		k += k/4 + 8
		c.lists[s].on = make([]int32, 0, k)
		c.lists[s].onRI = make([]int16, 0, k)
	}
	c.rebuild(l)
	return c
}

// rebuild recomputes every accumulator from the layout, resetting drift. It
// walks each video's copies in ascending video order, so each server's on
// list comes out ascending, which is all its implicit off list and
// positions need.
func (c *brCache) rebuild(l *BitRateLayout) {
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
	for v := 0; v < m; v++ {
		row := l.rows[v]
		rateSum := 0.0
		for _, cp := range row {
			rateSum += bp.RateSet[cp.ri]
			h := &c.lists[cp.s]
			h.on = append(h.on, int32(v))
			h.onRI = append(h.onRI, cp.ri)
		}
		copies := int32(len(row))
		c.copies[v] = copies
		c.rateSum[v] = rateSum
		if copies == 0 {
			c.orphans++
			continue
		}
		c.totalCopies += int(copies)
		c.qualitySum += rateSum / float64(copies)
		w := c.popPeak[v] / float64(copies)
		for _, cp := range row {
			c.storage[cp.s] += bp.copySizeBytes(v, cp.ri)
			c.demand[cp.s] += w * bp.RateSet[cp.ri]
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
// value is appended to the move log so Revert can undo it. Cost: one scan
// of v's copies to find s, plus O(1) for rate-only changes, or the
// cross-server demand ripple over v's copies when the copy count changes.
func (c *brCache) setCell(l *BitRateLayout, v, s int, newRI int16, record bool) {
	k, held := l.find(v, s)
	old := int16(-1)
	if held {
		old = l.rows[v][k].ri
	}
	if old == newRI {
		return
	}
	if record {
		c.mv.cells = append(c.mv.cells, brCell{v: int32(v), s: int32(s), old: old})
	}
	bp := c.bp

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

	h := &c.lists[s]
	if cNew == cOld {
		// Rate change on an existing copy: only server s's demand moves.
		w := c.popPeak[v] / float64(cOld)
		c.demand[s] += w * (newRate - oldRate)
		c.refreshViol(s)
		l.rows[v][k].ri = newRI
		h.onRI[h.posOf(int32(v))] = newRI
	} else {
		// Copy count changed: w_v shifts on every server holding v. Each
		// server's demand takes one update, so the order is immaterial.
		wOld, wNew := 0.0, 0.0
		if cOld > 0 {
			wOld = c.popPeak[v] / float64(cOld)
		}
		if cNew > 0 {
			wNew = c.popPeak[v] / float64(cNew)
		}
		for _, cp := range l.rows[v] {
			if i := int(cp.s); i != s {
				c.demand[i] += bp.RateSet[cp.ri] * (wNew - wOld)
				c.refreshViol(i)
			}
		}
		c.demand[s] += wNew*newRate - wOld*oldRate
		c.refreshViol(s)
		if old < 0 {
			h.add(int32(v), newRI)
			l.insert(v, k, brCopy{s: uint16(s), ri: newRI})
			c.totalCopies++
		} else {
			h.drop(int32(v))
			l.remove(v, k)
			c.totalCopies--
		}
	}
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
	bp.score(&e, c.demand)
	return e
}

// repair restores feasibility after a move by repeatedly applying one
// reduction action — lowering a raised copy's rate or evicting a lowest-rate
// copy that is not its video's last — on a violated server. The action is
// chosen uniformly at random so annealing can trade replicas for quality and
// vice versa; a deterministic highest-rate-first policy locks the search
// into all-copies states. Repair is global, not per-server: evicting a copy
// raises the communication weight of the video's remaining copies and can
// push *other* servers over their bandwidth limit, so it loops until no
// server is violated. Every action strictly reduces Σ(rate indices) +
// Σ(copies), so the loop terminates; in the rare state where a violated
// server has nothing reducible, the cost penalty takes over. The cached
// per-server loads and the incrementally tracked violated-server count make
// one action cost O(copies on the violated server).
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
		// The candidates are indices into the on list, so a lowered
		// copy's rate comes from onRI.
		h := &c.lists[violated]
		c.lowerable = c.lowerable[:0]
		c.evictable = c.evictable[:0]
		for i, v := range h.on {
			if h.onRI[i] > 0 {
				c.lowerable = append(c.lowerable, int32(i))
			} else if c.copies[v] > 1 {
				c.evictable = append(c.evictable, int32(i))
			}
		}
		total := len(c.lowerable) + len(c.evictable)
		if total == 0 {
			return // nothing reducible; the cost penalty handles the rest
		}
		k := rng.Intn(total)
		if k < len(c.lowerable) {
			i := c.lowerable[k]
			c.setCell(l, int(h.on[i]), violated, h.onRI[i]-1, true)
		} else {
			c.setCell(l, int(h.on[c.evictable[k-len(c.lowerable)]]), violated, -1, true)
		}
	}
}

// holderLists is one server's membership lists: on, the videos with a copy
// on the server, and onRI, each one's rate index there; the off list, the
// rest; and pos, each video's index in whichever list it is in. Moves keep
// them with a swap-remove and an append, so the order of every list, and
// with it the video a uniform index names, is the order the moves wrote.
//
// Only on is stored up front. Right after a rebuild, base is a copy of the
// (ascending) on list, the off list is its ascending complement and every
// position follows from base by one binary search, so nothing of size M is
// written. written then holds just the off-list slots and positions that
// moves have written since, keyed by slot i for off[i] and by m+v for
// pos[v]. Once it holds more than m>>denseShift entries, the table takes a
// quarter to half of the bytes dense arrays would, and each read still pays
// a probe and a binary search; the server then switches to plain off/pos
// arrays of length m, kept across rebuilds for the next switch.
type holderLists struct {
	on     []int32
	onRI   []int16 // parallel to on
	offLen int     // length of the off list

	// Implicit state.
	m       int32
	base    []int32
	written slotTable

	// Dense state.
	dense    bool
	off, pos []int32
}

// denseShift sets the switch to dense arrays: once a server's moves have
// written more than m>>denseShift slots and positions.
const denseShift = 3

// reset returns the lists to the implicit state for an on list just rebuilt
// in ascending order over a catalog of m videos.
func (h *holderLists) reset(m int) {
	h.m = int32(m)
	h.base = append(h.base[:0], h.on...)
	h.offLen = m - len(h.on)
	h.written.reset()
	h.dense = false
}

// offAt returns the video at index i of the off list.
func (h *holderLists) offAt(i int) int32 {
	if h.dense {
		return h.off[i]
	}
	return h.implicitOffAt(i)
}

// implicitOffAt is offAt before the switch to dense arrays, kept apart so
// the dense read inlines. Unless a move wrote slot i, it names video i+k,
// where k counts the holders before it: the j with base[j]−j ≤ i, since
// exactly base[j]−j non-holders precede base[j].
func (h *holderLists) implicitOffAt(i int) int32 {
	if v, ok := h.written.get(int32(i)); ok {
		return v
	}
	lo, hi := 0, len(h.base)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(h.base[mid])-mid <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(i + lo)
}

// posOf returns v's index in the list it is in.
func (h *holderLists) posOf(v int32) int32 {
	if h.dense {
		return h.pos[v]
	}
	return h.implicitPosOf(v)
}

// implicitPosOf is posOf before the switch to dense arrays, kept apart so
// the dense read inlines. Unless a move wrote v's position, a holder sits at
// its index in base and a non-holder at v minus the holders below it.
func (h *holderLists) implicitPosOf(v int32) int32 {
	if p, ok := h.written.get(h.m + v); ok {
		return p
	}
	j, holder := slices.BinarySearch(h.base, v)
	if holder {
		return int32(j)
	}
	return v - int32(j)
}

// add moves v, with a copy at rate index ri, from the off list to on:
// swap-remove, then append. O(1) when dense, O(log holders) implicit.
func (h *holderLists) add(v int32, ri int16) {
	i := h.posOf(v)
	last := h.offAt(h.offLen - 1)
	to := int32(len(h.on))
	if h.dense {
		h.off[i] = last
		h.pos[last] = i
		h.pos[v] = to
	} else {
		h.written.put(i, last)
		h.written.put(h.m+last, i)
		h.written.put(h.m+v, to)
		h.maybeDensify()
	}
	h.offLen--
	h.on = append(h.on, v)
	h.onRI = append(h.onRI, ri)
}

// drop moves v from on to the off list: swap-remove, then append. O(1) when
// dense, O(log holders) implicit.
func (h *holderLists) drop(v int32) {
	i := h.posOf(v)
	end := len(h.on) - 1
	last := h.on[end]
	h.on[i] = last
	h.onRI[i] = h.onRI[end]
	h.on = h.on[:end]
	h.onRI = h.onRI[:end]
	to := int32(h.offLen)
	if h.dense {
		h.pos[last] = i
		h.pos[v] = to
		h.off[to] = v
	} else {
		h.written.put(h.m+last, i)
		h.written.put(h.m+v, to)
		h.written.put(to, v)
		h.maybeDensify()
	}
	h.offLen++
}

// maybeDensify switches implicit lists to dense arrays once written has
// outgrown its share of the catalog: it lays out the implicit lists as the
// runs between the entries of base, then overlays what moves wrote.
func (h *holderLists) maybeDensify() {
	m := int(h.m)
	if h.written.n <= m>>denseShift {
		return
	}
	if h.pos == nil {
		h.pos = make([]int32, m)
		h.off = make([]int32, m)
	}
	off, next := int32(0), int32(0)
	for k := 0; k <= len(h.base); k++ {
		end := h.m // past the last holder, the run reaches the catalog's end
		if k < len(h.base) {
			end = h.base[k]
			h.pos[end] = int32(k)
		}
		for ; next < end; next++ {
			h.pos[next] = off
			h.off[off] = next
			off++
		}
		next = end + 1
	}
	for _, e := range h.written.slots {
		if e == 0 {
			continue
		}
		if k, val := int32(e>>32)-1, int32(uint32(e)); k < h.m {
			h.off[k] = val
		} else {
			h.pos[k-h.m] = val
		}
	}
	h.dense = true
}

// slotTable maps non-negative int32 keys to int32 values by open addressing
// with linear probing. A slot packs key+1 above the value, so 0 is empty.
// Keys are only ever inserted or overwritten, never deleted.
type slotTable struct {
	slots []uint64
	n     int
	shift uint8 // 32 − log2(len(slots)), for Fibonacci hashing
}

func (t *slotTable) home(k int32) uint32 { return (uint32(k) * 0x9E3779B9) >> t.shift }

func (t *slotTable) get(k int32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint32(len(t.slots) - 1)
	want := uint64(uint32(k)+1) << 32
	for i := t.home(k); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return 0, false
		}
		if e&^0xFFFFFFFF == want {
			return int32(uint32(e)), true
		}
	}
}

func (t *slotTable) put(k, v int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint32(len(t.slots) - 1)
	want := uint64(uint32(k)+1) << 32
	for i := t.home(k); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			t.n++
		} else if e&^0xFFFFFFFF != want {
			continue
		}
		t.slots[i] = want | uint64(uint32(v))
		return
	}
}

// grow doubles the table (16 slots at first) and reinserts every entry.
func (t *slotTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < 16 {
		size = 16
	}
	t.slots = make([]uint64, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, e := range old {
		if e != 0 {
			t.put(int32(e>>32)-1, int32(uint32(e)))
		}
	}
}

func (t *slotTable) reset() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}
