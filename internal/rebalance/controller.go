// Package rebalance closes the control loop the paper's conclusion asks
// for: it pairs the conservative offline placement (§4.3) with runtime
// re-optimization. A background Controller watches the live admission
// stream, re-estimates per-video popularity with the shared decayed-demand
// estimator (internal/demand), periodically re-anneals the layout
// incrementally — seeding the delta-evaluated annealer from the layout
// currently being served so short schedules converge — diffs old-vs-new
// layouts into an ordered migration plan (adds before evictions,
// storage-feasible at every step, never touching a replica with pinned
// sessions), and executes the plan through the live copy machinery under a
// configurable bandwidth budget.
package rebalance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster/internal/anneal"
	"vodcluster/internal/core"
	"vodcluster/internal/demand"
	"vodcluster/internal/serve"
)

// Config tunes the live placement controller. All durations are virtual
// seconds, divided by the daemon's compression factor for wall clocks, so a
// compressed drill rebalances on the same virtual schedule a real deployment
// would.
type Config struct {
	// Interval is the control-round cadence in virtual seconds (default 300).
	Interval float64
	// Decay multiplies the demand counters each round (default 0.5).
	Decay float64
	// MinObserved is the decayed observation mass below which a round skips
	// re-annealing — too little signal to trust (default 50).
	MinObserved float64
	// AnnealSteps bounds the incremental re-anneal per round (default 4000).
	// Short schedules work because each anneal is seeded from the layout
	// currently being served, not from scratch.
	AnnealSteps int
	// InitialTemp is the annealing start temperature (default 0.05 — low, so
	// the seeded layout is refined rather than scrambled).
	InitialTemp float64
	// CopyRate is the bandwidth one in-flight migration consumes, bits/s
	// (default 200 Mb/s), reserved on the backbone when the problem defines
	// one, else on the source's outgoing link.
	CopyRate float64
	// Budget caps the total bits/s of concurrent migration copies; 0 means
	// no cap beyond the per-copy reservations.
	Budget float64
	// MaxMovesPerRound caps adds and evictions per plan (default 8 each).
	MaxMovesPerRound int
	// MaxStalls is how many pump cycles a deferred move (pinned sessions,
	// storage waiting on an eviction) survives before being abandoned
	// (default 16).
	MaxStalls int
	// Seed derives the per-round annealing RNG streams (default 1).
	Seed int64
}

// withDefaults fills zero-valued tunables.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 300
	}
	if c.Decay == 0 {
		c.Decay = 0.5
	}
	if c.MinObserved == 0 {
		c.MinObserved = 50
	}
	if c.AnnealSteps == 0 {
		c.AnnealSteps = 4000
	}
	if c.InitialTemp == 0 {
		c.InitialTemp = 0.05
	}
	if c.CopyRate == 0 {
		c.CopyRate = 200 * core.Mbps
	}
	if c.MaxMovesPerRound == 0 {
		c.MaxMovesPerRound = 8
	}
	if c.MaxStalls == 0 {
		c.MaxStalls = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Controller is the live placement control loop: estimate demand from the
// admission stream, re-anneal the layout incrementally, diff into a
// migration plan, and execute the plan through the serve layer's copy and
// eviction machinery under the bandwidth budget. Attach with
// serve.Server.AttachRebalancer and call Start.
type Controller struct {
	srv *serve.Server
	cfg Config
	est *demand.Estimator

	rateSet []float64 // singleton: the catalog's fixed encoding rate

	kick chan struct{} // coalesced Trigger requests
	pump chan struct{} // coalesced copy-completion signals

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	copies   sync.WaitGroup

	mu           sync.Mutex
	plan         *Plan // nil when no round is draining
	inflight     map[int]bool
	inflightRate float64
	peakRate     float64
	journal      []serve.RebalanceAction

	round      atomic.Int64 // completed re-anneal rounds
	migrations atomic.Int64
	evictions  atomic.Int64
	deferred   atomic.Int64
	skipped    atomic.Int64
}

// maxJournal bounds the kept journal; the oldest half is discarded beyond it.
const maxJournal = 4096

// New builds a controller for srv. The problem must carry a fixed encoding
// bit rate: the live admission path charges the catalog rate, so the
// re-anneal searches placement only (a singleton rate set), never quality.
// The controller is created stopped and detached; call Start, which also
// attaches it to srv.
func New(srv *serve.Server, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Interval <= 0 || cfg.Decay < 0 || cfg.Decay >= 1 || cfg.MinObserved < 0 ||
		cfg.AnnealSteps < 1 || cfg.InitialTemp <= 0 || cfg.CopyRate <= 0 ||
		cfg.Budget < 0 || cfg.MaxMovesPerRound < 1 || cfg.MaxStalls < 1 {
		return nil, fmt.Errorf("rebalance: invalid config %+v", cfg)
	}
	p := srv.Cluster().Problem()
	rate, ok := p.Catalog.FixedBitRate()
	if !ok {
		return nil, fmt.Errorf("rebalance: catalog has mixed bit rates; the live rebalancer needs a fixed-rate catalog")
	}
	est, err := demand.NewEstimator(p.M(), cfg.Decay)
	if err != nil {
		return nil, err
	}
	return &Controller{
		srv:      srv,
		cfg:      cfg,
		est:      est,
		rateSet:  []float64{rate},
		kick:     make(chan struct{}, 1),
		pump:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		inflight: make(map[int]bool),
	}, nil
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Observe implements serve.Rebalancer: one admission-path demand sample.
func (c *Controller) Observe(video int) { c.est.Observe(video) }

// Trigger implements serve.Rebalancer: request an immediate round.
func (c *Controller) Trigger() bool {
	select {
	case c.kick <- struct{}{}:
		return true
	default:
		return true // a round is already pending; the kick coalesces
	}
}

// Rounds returns the number of completed re-anneal rounds.
func (c *Controller) Rounds() int64 { return c.round.Load() }

// Migrations returns the number of migration copies landed as replicas.
func (c *Controller) Migrations() int64 { return c.migrations.Load() }

// Evictions returns the number of surplus replicas removed.
func (c *Controller) Evictions() int64 { return c.evictions.Load() }

// Skipped returns rounds abandoned for lack of signal or improvement.
func (c *Controller) Skipped() int64 { return c.skipped.Load() }

// PeakCopyRate returns the high-water mark of concurrent migration
// bandwidth in bits/s — what Budget bounds when configured.
func (c *Controller) PeakCopyRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peakRate
}

// Status implements serve.Rebalancer.
func (c *Controller) Status() serve.RebalanceStatus {
	c.mu.Lock()
	pending := 0
	if c.plan != nil {
		pending = c.plan.Pending()
	}
	inflight := len(c.inflight)
	peak := c.peakRate
	journal := append([]serve.RebalanceAction(nil), c.journal...)
	c.mu.Unlock()
	return serve.RebalanceStatus{
		Enabled:         true,
		LayoutVersion:   c.srv.Cluster().LayoutVersion(),
		Rounds:          c.round.Load(),
		Migrations:      c.migrations.Load(),
		Evictions:       c.evictions.Load(),
		Deferred:        c.deferred.Load(),
		Skipped:         c.skipped.Load(),
		Inflight:        inflight,
		PendingMoves:    pending,
		PeakCopyRateBps: peak,
		Journal:         journal,
	}
}

// Start attaches the controller to its server and launches the control loop.
func (c *Controller) Start() {
	c.srv.AttachRebalancer(c)
	go func() {
		defer close(c.done)
		wall := time.Duration(c.cfg.Interval / c.srv.Compress() * float64(time.Second))
		tick := time.NewTicker(wall)
		defer tick.Stop()
		// The retry ticker re-pumps a draining plan between rounds so
		// deferred moves (pinned sessions draining out) retry promptly.
		retry := time.NewTicker(wall / 4)
		defer retry.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-c.kick:
				c.runRound()
			case <-tick.C:
				c.runRound()
			case <-c.pump:
				c.advance()
			case <-retry.C:
				if c.pending() > 0 {
					c.advance()
				}
			}
		}
	}()
}

// Stop implements serve.Rebalancer: terminate the loop, abort in-flight
// copies, and wait for everything to wind down.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.copies.Wait()
}

// pending returns the number of unexecuted plan moves.
func (c *Controller) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plan == nil {
		return 0
	}
	return c.plan.Pending()
}

// runRound is one control round: drain the current plan if one is still
// open, otherwise re-estimate, re-anneal, and diff a new plan.
func (c *Controller) runRound() {
	if c.pending() > 0 || c.Inflight() > 0 {
		c.advance() // never stack plans; finish the open one first
		return
	}
	plan, ok := c.reanneal()
	if !ok {
		return
	}
	c.mu.Lock()
	c.plan = plan
	c.mu.Unlock()
	c.round.Add(1)
	c.srv.Metrics().RebalanceRound()
	c.advance()
}

// Inflight returns the number of migration copies currently in flight.
func (c *Controller) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// reanneal runs the incremental re-optimization: a shadow problem in rank
// space (the catalog invariant wants popularity sorted non-increasing, so
// videos are re-indexed by empirical rank), a seed layout mirroring the
// holders currently serving, and a short low-temperature anneal. It returns
// no plan when there is too little signal, the anneal found nothing
// strictly better, or the result is infeasible.
func (c *Controller) reanneal() (*Plan, bool) {
	counts := c.est.Snapshot()
	defer c.est.Decay()
	total := 0.0
	for _, n := range counts {
		total += n
	}
	if total < c.cfg.MinObserved {
		c.skipped.Add(1)
		return nil, false
	}
	cl := c.srv.Cluster()
	p := cl.Problem()
	m := p.M()

	// Empirical popularity with add-one smoothing, ranked into shadow space.
	pops := make([]float64, m)
	denom := total + float64(m)
	for v, n := range counts {
		pops[v] = (n + 1) / denom
	}
	ranked := demand.RankByPopularity(pops)
	shadow := p.Clone()
	for rank := range shadow.Catalog {
		shadow.Catalog[rank].ID = rank
		shadow.Catalog[rank].Popularity = ranked[rank].Pop
	}
	// Under aggregate overload every layout violates the Eq. 6 bandwidth
	// constraint and the anneal's repair strips copies back to singletons, so
	// no feasible improvement ever appears — exactly when rebalancing matters
	// most. Scale the shadow's arrival rate until peak demand fits inside the
	// cluster: the popularity shape, which is what placement responds to, is
	// unchanged by a uniform scaling.
	if peakDemand := shadow.PeakRequests() * c.rateSet[0]; peakDemand > 0.95*shadow.TotalBandwidth() {
		shadow.ArrivalRate *= 0.95 * shadow.TotalBandwidth() / peakDemand
	}
	bp := &anneal.BitRateProblem{P: shadow, RateSet: c.rateSet}
	if err := bp.Validate(); err != nil {
		c.skipped.Add(1)
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "skip", Detail: err.Error()})
		return nil, false
	}

	// Seed from the layout being served: rank r's row mirrors the live
	// holders of the video ranked r. Degraded directories (a down backend's
	// copies are still listed) seed as-is; the anneal sees their demand.
	live := make([][]int, m)
	seed := anneal.NewBitRateLayout(m, p.N())
	for rank, r := range ranked {
		live[r.Video] = append([]int(nil), cl.Holders(r.Video)...)
		for _, s := range live[r.Video] {
			seed.SetRate(rank, s, 0)
		}
	}
	seedCost := bp.Cost(seed)

	opts := anneal.Options{
		InitialTemp:  c.cfg.InitialTemp,
		Cooling:      0.9,
		PlateauSteps: 100,
		MinTemp:      1e-4,
		MaxSteps:     c.cfg.AnnealSteps,
		Seed:         c.cfg.Seed + c.round.Load(),
	}
	res, err := anneal.Minimize[*anneal.BitRateLayout](bp, seed, opts)
	if err != nil {
		c.skipped.Add(1)
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "skip", Detail: err.Error()})
		return nil, false
	}
	// Accept only physically realizable improvements: no orphaned videos, no
	// storage over-commit, and a strictly better cost than the layout being
	// served. Residual bandwidth violation is tolerated — it means demand is
	// too concentrated for any layout to absorb, the admission controller
	// sheds the excess, and the penalty term in the cost already rewards the
	// layouts that shed least.
	ev := bp.Evaluate(res.Best)
	if ev.Orphans != 0 || ev.StorageViolation != 0 || res.BestCost >= seedCost-1e-12 {
		c.skipped.Add(1)
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "skip",
			Detail: fmt.Sprintf("no realizable improvement (seed %.6g, best %.6g)", seedCost, res.BestCost)})
		return nil, false
	}
	plan := diffPlan(live, res.Best, ranked, counts, c.cfg.MaxMovesPerRound)
	c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "plan",
		Detail: fmt.Sprintf("%d adds, %d evicts (cost %.6g -> %.6g)", len(plan.Adds), len(plan.Evicts), seedCost, res.BestCost)})
	return plan, true
}

// advance executes as much of the open plan as currently fits: adds under
// the bandwidth budget (hottest first, storage-feasible — an add whose
// destination is full waits for a same-server eviction), then evictions
// (which defer while sessions pin the replica). Moves that stall past
// MaxStalls pump cycles are abandoned so the plan always drains.
func (c *Controller) advance() {
	c.mu.Lock()
	plan := c.plan
	c.mu.Unlock()
	if plan == nil {
		return
	}
	var adds []Move
	for i := range plan.Adds {
		m := plan.Adds[i]
		switch c.tryAdd(&m, plan) {
		case moveDone, moveDropped:
		case moveDeferred:
			m.attempts++
			if m.attempts > c.cfg.MaxStalls {
				c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "abandon",
					Video: m.Video, Dst: m.Server, Detail: "add stalled"})
			} else {
				adds = append(adds, m)
			}
		}
	}
	pendingAdd := make(map[int]bool, len(adds))
	for _, m := range adds {
		pendingAdd[m.Video] = true
	}
	var evicts []Move
	for i := range plan.Evicts {
		m := plan.Evicts[i]
		switch c.tryEvict(&m, pendingAdd) {
		case moveDone, moveDropped:
		case moveDeferred:
			m.attempts++
			if m.attempts > c.cfg.MaxStalls {
				c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "abandon",
					Video: m.Video, Src: m.Server, Detail: "evict stalled (pinned sessions)"})
			} else {
				evicts = append(evicts, m)
			}
		}
	}
	c.mu.Lock()
	plan.Adds, plan.Evicts = adds, evicts
	drained := plan.Pending() == 0 && len(c.inflight) == 0
	if drained {
		c.plan = nil
	}
	c.mu.Unlock()
	if drained {
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "round-complete",
			Detail: fmt.Sprintf("layout version %d", c.srv.Cluster().LayoutVersion())})
	}
}

// moveOutcome classifies one executor attempt.
type moveOutcome int

const (
	moveDone     moveOutcome = iota // executed (or copy started)
	moveDeferred                    // retry on a later pump
	moveDropped                     // permanently impossible; forget it
)

// tryAdd attempts to start one migration copy.
func (c *Controller) tryAdd(m *Move, plan *Plan) moveOutcome {
	cl := c.srv.Cluster()
	p := cl.Problem()
	v, dst := m.Video, m.Server

	c.mu.Lock()
	if c.inflight[v] {
		c.mu.Unlock()
		return moveDeferred // one copy of a video at a time
	}
	overBudget := c.cfg.Budget > 0 && c.inflightRate+c.cfg.CopyRate > c.cfg.Budget+1e-6
	c.mu.Unlock()
	if overBudget {
		return moveDeferred
	}
	if !cl.Eligible(dst) {
		return moveDeferred // destination draining/down; it may come back
	}
	if holds := cl.Holders(v); len(holds) > 0 {
		for _, h := range holds {
			if h == dst {
				return moveDropped // already there (e.g. the repairer beat us)
			}
		}
	}
	size := p.Catalog[v].SizeBytes()
	if cl.StorageFree(dst) < size-1e-6 {
		if plan.hasEvictOn(dst) {
			return moveDeferred // an eviction will free the room
		}
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "drop",
			Video: v, Dst: dst, Detail: "no storage"})
		return moveDropped
	}
	// Source: the most-free holder that is still reachable.
	src, srcFree := -1, int64(0)
	for _, s := range cl.Holders(v) {
		if cl.State(s) == serve.BackendDown {
			continue
		}
		if free := cl.Free(s); src == -1 || free > srcFree {
			src, srcFree = s, free
		}
	}
	if src == -1 {
		return moveDeferred // every replica is down; repair may revive one
	}
	rate := c.cfg.CopyRate
	overBackbone := p.BackboneBandwidth > 0
	if overBackbone {
		if !cl.ReserveBackbone(rate) {
			return moveDeferred
		}
	} else if !cl.ReserveOutgoing(src, rate) {
		return moveDeferred
	}

	c.mu.Lock()
	c.inflight[v] = true
	c.inflightRate += c.cfg.CopyRate
	if c.inflightRate > c.peakRate {
		c.peakRate = c.inflightRate
	}
	c.mu.Unlock()
	c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "copy-start",
		Video: v, Src: src, Dst: dst})

	wall := time.Duration(size * 8 / c.cfg.CopyRate / c.srv.Compress() * float64(time.Second))
	c.copies.Add(1)
	go func() {
		defer c.copies.Done()
		t := time.NewTimer(wall)
		finished := false
		select {
		case <-t.C:
			finished = true
		case <-c.stop:
			t.Stop()
		}
		if overBackbone {
			cl.ReleaseBackbone(rate)
		} else {
			cl.ReleaseOutgoing(src, rate)
		}
		c.mu.Lock()
		delete(c.inflight, v)
		c.inflightRate -= c.cfg.CopyRate
		c.mu.Unlock()
		c.settleCopy(v, src, dst, finished)
		select {
		case c.pump <- struct{}{}:
		default:
		}
	}()
	return moveDone
}

// settleCopy lands or aborts one finished migration transfer, mirroring the
// repairer's settle semantics: a dead endpoint drops the copy.
func (c *Controller) settleCopy(v, src, dst int, finished bool) {
	cl := c.srv.Cluster()
	abort := func(detail string) {
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "copy-abort",
			Video: v, Src: src, Dst: dst, Detail: detail})
	}
	switch {
	case !finished:
		abort("shutdown")
	case cl.State(src) == serve.BackendDown:
		abort("source died mid-copy")
	case cl.State(dst) == serve.BackendDown:
		abort("destination died mid-copy")
	default:
		if err := c.srv.LandReplica(v, dst); err != nil {
			abort(err.Error())
			return
		}
		c.migrations.Add(1)
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "copy-complete",
			Video: v, Src: src, Dst: dst})
	}
}

// tryEvict attempts one safe eviction through the serve layer. pendingAdd
// lists videos with adds still pending: their evictions wait, keeping the
// adds-before-evictions ordering per video however the budget staggers the
// copies.
func (c *Controller) tryEvict(m *Move, pendingAdd map[int]bool) moveOutcome {
	c.mu.Lock()
	busy := c.inflight[m.Video]
	c.mu.Unlock()
	if busy || pendingAdd[m.Video] {
		return moveDeferred // let the video's adds land before shrinking it
	}
	err := c.srv.EvictReplica(m.Video, m.Server)
	switch {
	case err == nil:
		c.evictions.Add(1)
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "evict",
			Video: m.Video, Src: m.Server})
		return moveDone
	case err == serve.ErrReplicaPinned:
		c.deferred.Add(1)
		return moveDeferred
	case err == serve.ErrLastReplica:
		return moveDeferred // a repair copy may restore a sibling
	default:
		c.log(serve.RebalanceAction{TimeNS: c.srv.Tracer().NowNS(), Action: "drop",
			Video: m.Video, Src: m.Server, Detail: err.Error()})
		return moveDropped
	}
}

// log appends one journal entry, trimming the oldest half at the cap.
func (c *Controller) log(a serve.RebalanceAction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.journal) >= maxJournal {
		c.journal = append(c.journal[:0], c.journal[maxJournal/2:]...)
	}
	c.journal = append(c.journal, a)
}

// Journal returns a copy of the journaled actions, oldest first.
func (c *Controller) Journal() []serve.RebalanceAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]serve.RebalanceAction(nil), c.journal...)
}

var _ serve.Rebalancer = (*Controller)(nil)
