package anneal

import (
	"fmt"
	"math"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// BitRateLayout is the simulated-annealing state for the scalable-bit-rate
// problem (§4.3): which servers hold a copy of each video and at which
// encoding rate. Unlike the fixed-rate Layout, different copies of one video
// may be encoded at different rates — the flexibility the paper's conclusion
// highlights for serving heterogeneous clients.
//
// A layout stores each video's copies, not an M×N grid, so building,
// cloning and scanning one costs O(M + copies). Read it through Rate,
// Copies and EachCopy and write it through SetRate.
type BitRateLayout struct {
	n int // servers

	// rows[v] lists video v's copies in ascending server order. Rows are
	// windows into shared backing arrays, each capped at its own capacity,
	// so a row that grows moves to fresh space and never writes into its
	// neighbour.
	rows [][]brCopy
	// spare is the unused tail of the chunk the last moved row was cut
	// from; the rows that grow next are cut from it too. chunk is that
	// chunk's length.
	spare []brCopy
	chunk int

	// cache is the delta-evaluation state the DeltaProblem fast path
	// maintains alongside the layout; it is built lazily on the first
	// Propose and dropped by clone and SetRate, so every annealing chain
	// owns exactly one and outside writes cannot leave it stale.
	cache *brCache
}

// brCopy is one copy of a video: its server and the index of its rate in
// the problem's RateSet.
type brCopy struct {
	s  uint16
	ri int16
}

// NewBitRateLayout returns an empty layout for m videos and n servers. It
// panics when n exceeds maxServers, which BitRateProblem.Validate reports
// as an error.
func NewBitRateLayout(m, n int) *BitRateLayout {
	if n > maxServers {
		panic(fmt.Sprintf("anneal: %d servers; a copy addresses at most %d", n, maxServers))
	}
	return &BitRateLayout{n: n, rows: make([][]brCopy, m)}
}

// maxServers is the most servers a brCopy's server field addresses.
const maxServers = math.MaxUint16 + 1

// M returns the number of videos the layout covers.
func (l *BitRateLayout) M() int { return len(l.rows) }

// N returns the number of servers the layout covers.
func (l *BitRateLayout) N() int { return l.n }

// Rate returns the index into the problem's RateSet of the copy of video v
// on server s, or -1 when s holds no copy of v.
func (l *BitRateLayout) Rate(v, s int) int16 {
	if k, held := l.find(v, s); held {
		return l.rows[v][k].ri
	}
	return -1
}

// SetRate sets the rate index of the copy of video v on server s; -1
// removes the copy. It drops the layout's delta-evaluation cache.
func (l *BitRateLayout) SetRate(v, s int, ri int16) {
	if s < 0 || s >= l.n {
		panic(fmt.Sprintf("anneal: server %d out of range [0, %d)", s, l.n))
	}
	l.cache = nil
	l.set(v, s, ri)
}

// Copies returns how many servers hold video v.
func (l *BitRateLayout) Copies(v int) int { return len(l.rows[v]) }

// TotalCopies returns the number of (video, server) placements.
func (l *BitRateLayout) TotalCopies() int {
	total := 0
	for _, row := range l.rows {
		total += len(row)
	}
	return total
}

// EachCopy calls f with the server and rate index of every copy of video v,
// in ascending server order.
func (l *BitRateLayout) EachCopy(v int, f func(s int, ri int16)) {
	for _, c := range l.rows[v] {
		f(int(c.s), c.ri)
	}
}

// find returns the index of server s in v's row and whether s holds v;
// when it does not, the index is where s's copy would go.
func (l *BitRateLayout) find(v, s int) (int, bool) {
	row := l.rows[v]
	for k, c := range row {
		if int(c.s) >= s {
			return k, int(c.s) == s
		}
	}
	return len(row), false
}

// set is SetRate without dropping the cache, for the cache's own writes.
func (l *BitRateLayout) set(v, s int, ri int16) {
	k, held := l.find(v, s)
	switch {
	case held && ri >= 0:
		l.rows[v][k].ri = ri
	case held:
		l.remove(v, k)
	case ri >= 0:
		l.insert(v, k, brCopy{s: uint16(s), ri: ri})
	}
}

// insert puts c at index k of v's row.
func (l *BitRateLayout) insert(v, k int, c brCopy) {
	l.reserve(v, len(l.rows[v])+1)
	row := l.rows[v][:len(l.rows[v])+1]
	for i := len(row) - 1; i > k; i-- {
		row[i] = row[i-1]
	}
	row[k] = c
	l.rows[v] = row
}

// remove deletes index k of v's row.
func (l *BitRateLayout) remove(v, k int) {
	row := l.rows[v]
	for i := k + 1; i < len(row); i++ {
		row[i-1] = row[i]
	}
	l.rows[v] = row[:len(row)-1]
}

// reserve gives v's row room for want copies. A row that is full moves to
// the spare chunk, with room for twice its length. Each new chunk is at
// least twice the last, so a layout's rows grow in a few allocations
// however many of them grow.
func (l *BitRateLayout) reserve(v, want int) {
	row := l.rows[v]
	if cap(row) >= want {
		return
	}
	size := max(min(2*len(row), l.n), want)
	if len(l.spare) < size {
		l.chunk = max(size, 2*l.chunk, len(l.rows)/16, 8)
		l.spare = make([]brCopy, l.chunk)
	}
	moved := l.spare[:len(row):size]
	l.spare = l.spare[size:]
	copy(moved, row)
	l.rows[v] = moved
}

// setRow makes v's row a copy of src.
func (l *BitRateLayout) setRow(v int, src []brCopy) {
	l.reserve(v, len(src))
	l.rows[v] = append(l.rows[v][:0], src...)
}

// clone deep-copies the layout, without its cache, into one backing array
// sized to the copies.
func (l *BitRateLayout) clone() *BitRateLayout {
	flat := make([]brCopy, l.TotalCopies())
	c := &BitRateLayout{n: l.n, rows: make([][]brCopy, len(l.rows))}
	off := 0
	for v, row := range l.rows {
		end := off + copy(flat[off:], row)
		c.rows[v] = flat[off:end:end]
		off = end
	}
	return c
}

// BitRateProblem is the §4.3 optimization: choose copies and their discrete
// encoding rates to maximize the Eq. 1 objective under storage and outgoing
// bandwidth constraints. It implements Problem[*BitRateLayout] with
// Cost = −O plus a large penalty for any constraint violation (the
// neighborhood keeps states feasible by repair, so the penalty only guards
// against misuse).
type BitRateProblem struct {
	// P supplies the cluster, catalog popularities, durations, and
	// workload; the catalog's own BitRate fields are ignored.
	P *core.Problem
	// RateSet lists the admissible encoding rates in bits/s, ascending.
	// The paper's example set for MPEG-2 material is {2, 4, 6, 8} Mb/s.
	RateSet []float64
	// Obj weights the objective terms; the zero value means
	// core.DefaultObjective.
	Obj core.Objective
}

// Validate checks the problem parameters.
func (bp *BitRateProblem) Validate() error {
	if bp.P == nil {
		return fmt.Errorf("anneal: BitRateProblem needs a core problem")
	}
	if err := bp.P.Validate(); err != nil {
		return err
	}
	if n := bp.P.N(); n > maxServers {
		return fmt.Errorf("anneal: %d servers; a copy addresses at most %d", n, maxServers)
	}
	if len(bp.RateSet) == 0 {
		return fmt.Errorf("anneal: empty rate set")
	}
	if len(bp.RateSet) > math.MaxInt16+1 {
		return fmt.Errorf("anneal: %d rates; a rate index addresses at most %d", len(bp.RateSet), math.MaxInt16+1)
	}
	for i, r := range bp.RateSet {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("anneal: rate %d is not finite (%g)", i, r)
		}
		if r <= 0 {
			return fmt.Errorf("anneal: rate %d is non-positive (%g)", i, r)
		}
		if i > 0 && r <= bp.RateSet[i-1] {
			return fmt.Errorf("anneal: rate set must be strictly ascending")
		}
	}
	return nil
}

func (bp *BitRateProblem) objective() core.Objective {
	if bp.Obj == (core.Objective{}) {
		return core.DefaultObjective()
	}
	return bp.Obj
}

// copySizeBytes returns the storage of one copy of video v at rate index ri.
func (bp *BitRateProblem) copySizeBytes(v int, ri int16) float64 {
	return bp.P.Catalog[v].SizeAtRate(bp.RateSet[ri])
}

// InitialSolution implements the paper's starting point: every video gets one
// copy at the lowest rate, dealt round-robin across servers. It returns an
// error if even that does not fit.
func (bp *BitRateProblem) InitialSolution() (*BitRateLayout, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	m, n := bp.P.M(), bp.P.N()
	l := NewBitRateLayout(m, n)
	flat := make([]brCopy, m)
	used := make([]float64, n)
	for v := 0; v < m; v++ {
		s := v % n
		size := bp.copySizeBytes(v, 0)
		if used[s]+size > bp.P.StorageOf(s) {
			return nil, fmt.Errorf("anneal: initial solution does not fit: server %d full at video %d", s, v)
		}
		flat[v] = brCopy{s: uint16(s)}
		l.rows[v] = flat[v : v+1 : v+1]
		used[s] += size
	}
	return l, nil
}

// Eval describes a state's objective components and feasibility.
type Eval struct {
	// MeanRateMbps is the catalog-average of each video's mean copy rate.
	MeanRateMbps float64
	// Degree is the average number of copies per video.
	Degree float64
	// Imbalance is the Eq. 2 load imbalance of expected bandwidth demand.
	Imbalance float64
	// Objective is the Eq. 1 value (higher is better).
	Objective float64
	// StorageViolation and BandwidthViolation are the total capacity
	// excesses in bytes and bits/s; both are 0 for feasible states.
	StorageViolation   float64
	BandwidthViolation float64
	// Orphans counts videos with no copy at all (always infeasible).
	Orphans int
}

// Feasible reports whether the state satisfies every constraint.
func (e Eval) Feasible() bool {
	return e.StorageViolation == 0 && e.BandwidthViolation == 0 && e.Orphans == 0
}

// Evaluate scores a state. It walks each video's copies twice, once for
// its rate sum and once for the per-server sums.
func (bp *BitRateProblem) Evaluate(l *BitRateLayout) Eval {
	var e Eval
	p := bp.P
	m, n := p.M(), p.N()
	peak := p.PeakRequests()
	storage := make([]float64, n)
	demand := make([]float64, n)
	totalCopies := 0
	for v := 0; v < m; v++ {
		row := l.rows[v]
		rateSum := 0.0
		for _, c := range row {
			rateSum += bp.RateSet[c.ri]
		}
		copies := len(row)
		if copies == 0 {
			e.Orphans++
			continue
		}
		totalCopies += copies
		e.MeanRateMbps += rateSum / float64(copies) / core.Mbps
		w := p.Catalog[v].Popularity * peak / float64(copies)
		for _, c := range row {
			storage[c.s] += bp.copySizeBytes(v, c.ri)
			demand[c.s] += w * bp.RateSet[c.ri]
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

// score sets e's imbalance from the per-server demand, by Eq. 2 or, when
// the objective asks for it, Eq. 3's coefficient of variation, and then
// its Eq. 1 objective. Evaluate and the delta cache share it.
func (bp *BitRateProblem) score(e *Eval, demand []float64) {
	obj := bp.objective()
	if obj.UseStdImbalance {
		e.Imbalance = core.ImbalanceCV(demand)
	} else {
		e.Imbalance = core.ImbalanceMax(demand)
	}
	e.Objective = e.MeanRateMbps + obj.Alpha*e.Degree - obj.Beta*e.Imbalance
}

// Cost implements Problem: the negated objective plus severe penalties for
// violated constraints. It always evaluates from scratch — the delta fast
// path keeps it as its cross-check.
func (bp *BitRateProblem) Cost(l *BitRateLayout) float64 {
	return bp.costOf(bp.Evaluate(l))
}

// costOf folds an evaluation into the annealing cost. The scratch Cost and
// the delta cache share it so the two paths price states identically.
func (bp *BitRateProblem) costOf(e Eval) float64 {
	penalty := 0.0
	if !e.Feasible() {
		n := float64(bp.P.N())
		penalty = 1e6 +
			e.StorageViolation/(bp.P.TotalStorage()/n) +
			e.BandwidthViolation/(bp.P.TotalBandwidth()/n) +
			float64(e.Orphans)
	}
	return -e.Objective + penalty
}

// Clone implements Problem.
func (bp *BitRateProblem) Clone(l *BitRateLayout) *BitRateLayout { return l.clone() }

// Neighbor implements Problem: a clone of l moved by Propose and kept by
// Apply, so the clone-and-rescan loop and the delta path share one move
// rule. When the chosen server admits no move at all (fully packed with
// every rate at the maximum), Neighbor returns l itself — the no-op signal
// Unchanged recognizes — instead of an identical clone the engine would
// re-evaluate and count as accepted.
func (bp *BitRateProblem) Neighbor(l *BitRateLayout, rng *stats.RNG) *BitRateLayout {
	nl := l.clone()
	move, _ := bp.Propose(nl, rng)
	if bp.IsNoop(move) {
		return l // no move on this server: recognized no-op
	}
	bp.Apply(nl, move)
	return nl
}

// Unchanged implements NoopDetector: Neighbor signals a no-op by returning
// its argument itself.
func (bp *BitRateProblem) Unchanged(prev, cand *BitRateLayout) bool { return prev == cand }

var (
	_ Problem[*BitRateLayout]           = (*BitRateProblem)(nil)
	_ NoopDetector[*BitRateLayout]      = (*BitRateProblem)(nil)
	_ DeltaProblem[*BitRateLayout, any] = (*BitRateProblem)(nil)
)

// Propose implements DeltaProblem with the paper's move structure: pick a
// random server; either raise the rate of one of its copies or add a new
// video copy at the lowest rate; then, while a server violates storage or
// bandwidth, lower the rates of its copies and evict lowest-rate copies —
// never a video's cluster-wide last copy (brCache.repair). The move runs in
// place against the layout's cached evaluation state, so the cost delta
// comes out in O(changed cells) instead of a rescan of the layout. The
// returned move is a reused scratch buffer owned by the layout's cache —
// valid only until the next Propose, per the DeltaProblem contract.
func (bp *BitRateProblem) Propose(l *BitRateLayout, rng *stats.RNG) (any, float64) {
	c := bp.ensureCache(l)
	c.maybeRebuild(l)
	mv := &c.mv
	mv.cells = mv.cells[:0]
	mv.preCost = c.cost

	s := rng.Intn(bp.P.N())
	ls := &c.lists[s]
	onS, offN := ls.on, ls.offLen
	grow := rng.Bernoulli(0.5)
	switch {
	case (grow || len(onS) == 0) && offN > 0:
		v := int(ls.offAt(rng.Intn(offN)))
		c.setCell(l, v, s, 0, true)
	case len(onS) > 0:
		k := rng.Intn(len(onS))
		if ri := ls.onRI[k]; int(ri) < len(bp.RateSet)-1 {
			c.setCell(l, int(onS[k]), s, ri+1, true)
		} else if offN > 0 { // already at max: add instead
			c.setCell(l, int(ls.offAt(rng.Intn(offN))), s, 0, true)
		} else {
			return mv, 0 // no move on this server
		}
	default:
		return mv, 0 // fully packed server with every rate at max
	}

	c.repair(l, rng)
	c.cost = bp.costOf(c.eval())
	return mv, c.cost - mv.preCost
}

// Apply implements DeltaProblem: Propose already mutated the state, so
// committing only advances the rebuild counter that bounds float drift and
// marks the move's video rows dirty for the next Sync.
func (bp *BitRateProblem) Apply(l *BitRateLayout, move any) {
	c := l.cache
	c.applies++
	for _, cell := range move.(*brMove).cells {
		if !c.isDirty[cell.v] {
			c.isDirty[cell.v] = true
			c.dirty = append(c.dirty, cell.v)
		}
	}
}

// Sync implements DeltaProblem: copy the rows Apply marked since the last
// Sync from cur into best and clear the marks. Reverted proposals restore
// their cells bit-exactly and are never marked. A cur without a cache has
// had no proposal yet, so there is nothing to copy.
func (bp *BitRateProblem) Sync(best, cur *BitRateLayout) {
	c := cur.cache
	if c == nil {
		return
	}
	for _, v := range c.dirty {
		best.setRow(int(v), cur.rows[v])
		c.isDirty[v] = false
	}
	c.dirty = c.dirty[:0]
}

// Revert implements DeltaProblem: undo the proposal's cell changes in
// reverse order, restoring the cached accumulators alongside the layout.
func (bp *BitRateProblem) Revert(l *BitRateLayout, move any) {
	mv := move.(*brMove)
	c := l.cache
	for i := len(mv.cells) - 1; i >= 0; i-- {
		cell := mv.cells[i]
		c.setCell(l, int(cell.v), int(cell.s), cell.old, false)
	}
	c.cost = mv.preCost
}

// IsNoop implements DeltaProblem: a proposal that found no move carries no
// cell changes.
func (bp *BitRateProblem) IsNoop(move any) bool { return len(move.(*brMove).cells) == 0 }

// ensureCache returns the layout's delta-evaluation cache, building it on
// first use or after the layout was handed over from a different problem.
func (bp *BitRateProblem) ensureCache(l *BitRateLayout) *brCache {
	if l.cache == nil || l.cache.bp != bp {
		l.cache = newBRCache(bp, l)
	}
	return l.cache
}

// Optimize runs the full §4.3 pipeline: initial solution, annealing, and a
// final evaluation. chains > 1 runs parallel independent searches.
func (bp *BitRateProblem) Optimize(opts Options, chains int) (*BitRateLayout, Eval, error) {
	init, err := bp.InitialSolution()
	if err != nil {
		return nil, Eval{}, err
	}
	var res Result[*BitRateLayout]
	if chains <= 1 {
		res, err = Minimize[*BitRateLayout](bp, init, opts)
	} else {
		res, err = MinimizeParallel[*BitRateLayout](bp, init, opts, chains)
	}
	if err != nil {
		return nil, Eval{}, err
	}
	e := bp.Evaluate(res.Best)
	if math.IsNaN(e.Objective) {
		return nil, Eval{}, fmt.Errorf("anneal: objective is NaN")
	}
	return res.Best, e, nil
}

// Runtime converts an annealed scalable-bit-rate layout into the simulator's
// inputs: a core.Layout listing where copies live and the per-copy rate
// matrix for cluster.WithCopyRates. The §4.3 result can then be simulated
// end to end instead of only evaluated analytically.
func (bp *BitRateProblem) Runtime(l *BitRateLayout) (*core.Layout, [][]float64, error) {
	if err := bp.Validate(); err != nil {
		return nil, nil, err
	}
	m, n := bp.P.M(), bp.P.N()
	if l.M() != m {
		return nil, nil, fmt.Errorf("anneal: layout covers %d videos; problem has %d", l.M(), m)
	}
	if l.N() != n {
		return nil, nil, fmt.Errorf("anneal: layout covers %d servers; problem has %d", l.N(), n)
	}
	layout := core.NewLayout(m)
	rates := make([][]float64, m)
	for v := 0; v < m; v++ {
		rates[v] = make([]float64, n)
		for _, c := range l.rows[v] {
			s := int(c.s)
			if int(c.ri) >= len(bp.RateSet) {
				return nil, nil, fmt.Errorf("anneal: video %d on server %d has rate index %d of %d", v, s, c.ri, len(bp.RateSet))
			}
			if err := layout.Place(v, s); err != nil {
				return nil, nil, err
			}
			layout.Replicas[v]++
			rates[v][s] = bp.RateSet[c.ri]
		}
		if layout.Replicas[v] == 0 {
			return nil, nil, fmt.Errorf("anneal: video %d has no copy", v)
		}
	}
	return layout, rates, nil
}
