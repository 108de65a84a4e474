package sim

import (
	"fmt"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/metrics"
	"vodcluster/internal/resilience"
	"vodcluster/internal/stats"
	"vodcluster/internal/workload"
	"vodcluster/internal/zipf"
)

// run is the per-execution state of one simulation: the event engine, the
// cluster, and the registered lifecycle hooks. Run (vod.go) builds it,
// schedules the initial events, and drains the queue; every transition of
// the session lifecycle — admit → serve → (end | tear | salvage) — flows
// through the fire* methods so hooks observe a consistent event stream.
type run struct {
	p        *core.Problem
	st       *cluster.State
	eng      *Engine
	sched    cluster.Scheduler
	col      *metrics.Collector
	rng      *stats.RNG
	duration float64
	warmup   float64
	pol      resilience.Policy
	degrader *resilience.Degrader

	// sessions tracks every live stream's lifecycle record, so failover can
	// re-schedule a salvaged stream's departure at its original end time and
	// later outcomes adjust statistics only for measured sessions. The
	// records themselves come from slab.
	sessions cluster.StreamTable[*Session]
	slab     sessionSlab

	// opDepart is the session-departure event kind; its argument is the
	// stream ID.
	opDepart Op

	hooks     []Hook
	rejectors []RejectInterceptor
	tearers   []TearInterceptor
	tickers   []Ticker
	deciders  []DecisionObserver

	// decSeq numbers decisions per kind. KindArrival sequence numbers are
	// policy-independent (one per arriving request, in arrival order), so
	// journals from different policies over the same trace align on them.
	decSeq [numDecisionKinds]int
	// seeded is the run's scheduler when it (or a policy under its
	// decorators) wants per-decision RNG streams; decRNG is the base
	// stream those are derived from — split from the run seed by decision
	// index, so common random numbers hold across policies even after
	// their states diverge.
	seeded cluster.SeededScheduler
	decRNG *stats.RNG
}

// register adds a hook and wires up any optional interfaces it implements.
func (r *run) register(h Hook) {
	r.hooks = append(r.hooks, h)
	if ic, ok := h.(RejectInterceptor); ok {
		r.rejectors = append(r.rejectors, ic)
	}
	if ic, ok := h.(TearInterceptor); ok {
		r.tearers = append(r.tearers, ic)
	}
	if tk, ok := h.(Ticker); ok {
		r.tickers = append(r.tickers, tk)
	}
	if ob, ok := h.(DecisionObserver); ok {
		r.deciders = append(r.deciders, ob)
	}
}

// swapBuffers exchanges the run's growable storage — engine queues, both
// stream tables, session slabs — with b's. Run calls it twice: to lend a
// fresh run the recycled buffers, and to take them back (leaving the run
// with the empty ones) once nothing will touch the run again.
func (r *run) swapBuffers(b *runBuffers) {
	r.eng.engineBuffers, b.eng = b.eng, r.eng.engineBuffers
	r.st.SwapStreamTable(&b.streams)
	r.sessions, b.sessions = b.sessions, r.sessions
	r.slab, b.slab = b.slab, r.slab
}

func (r *run) warm(now float64) bool { return now >= r.warmup }

// mustAfter schedules a callback from within an event handler, where a
// scheduling failure is a programming error (delays are non-negative).
func (r *run) mustAfter(delay float64, fn Handler) {
	if err := r.eng.ScheduleAfter(delay, fn); err != nil {
		panic(err)
	}
}

func (r *run) fireArrival(now float64, video int) {
	for _, h := range r.hooks {
		h.OnArrival(now, video)
	}
}

func (r *run) fireAdmit(now float64, s *Session) {
	for _, h := range r.hooks {
		h.OnAdmit(now, s)
	}
}

func (r *run) fireReject(now float64, video int, measured bool) {
	for _, h := range r.hooks {
		h.OnReject(now, video, measured)
	}
}

func (r *run) fireRetryQueued(now float64, video int, measured bool) {
	for _, h := range r.hooks {
		h.OnRetryQueued(now, video, measured)
	}
}

func (r *run) fireRetryOutcome(now float64, video int, admitted, measured bool) {
	for _, h := range r.hooks {
		h.OnRetryOutcome(now, video, admitted, measured)
	}
}

func (r *run) fireEnd(now float64, s *Session) {
	for _, h := range r.hooks {
		h.OnEnd(now, s)
	}
}

func (r *run) fireTear(now float64, s *Session) {
	for _, h := range r.hooks {
		h.OnTear(now, s)
	}
}

func (r *run) fireSalvage(now float64, old, s *Session) {
	for _, h := range r.hooks {
		h.OnSalvage(now, old, s)
	}
}

func (r *run) fireSample(now float64) {
	for _, h := range r.hooks {
		h.OnSample(now, r.st)
	}
}

func (r *run) fireDone(now float64) {
	for _, h := range r.hooks {
		h.OnDone(now, r.col)
	}
}

// departAfter schedules the session's normal departure.
func (r *run) departAfter(id cluster.StreamID, delay float64) {
	if delay < 0 {
		delay = 0
	}
	if err := r.eng.ScheduleOp(r.eng.Now()+delay, r.opDepart, int64(id)); err != nil {
		panic(err) // as in mustAfter
	}
}

// depart handles opDepart. A server failure may have torn the stream down
// first; a missing stream at departure time is expected then and the event
// is a no-op.
func (r *run) depart(now float64, arg int64) {
	id := cluster.StreamID(arg)
	if _, ok := r.st.Lookup(id); ok {
		if err := r.st.Release(id); err != nil {
			panic(err) // release of a live stream cannot fail
		}
		if s, _ := r.sessions.Get(id); s != nil {
			r.fireEnd(now, s)
		}
	}
	r.sessions.Delete(id)
}

// newSession returns a slab record holding v. Sessions are never freed one
// by one; see sessionSlab.
func (r *run) newSession(v Session) *Session {
	s := r.slab.alloc()
	*s = v
	return s
}

// startSession runs one admission attempt and, on success, registers the
// session and schedules its departure. measured is fixed at arrival time, so
// a retry that settles after the warmup boundary stays unmeasured. Callers
// fire OnAdmit; startSession itself stays silent so the retry path can order
// its own events around the admission.
func (r *run) startSession(now float64, video int, measured bool) (*Session, bool) {
	id, ok := r.st.Admit(video, r.sched)
	if !ok {
		return nil, false
	}
	st, _ := r.st.Lookup(id)
	s := r.newSession(Session{
		ID:         id,
		Video:      video,
		Server:     st.Server,
		Rate:       st.Rate,
		Redirected: st.Redirected,
		Measured:   measured,
		End:        now + r.p.Catalog[video].Duration,
	})
	if r.degrader != nil && r.degrader.LastDegraded() {
		s.Degraded = true
	}
	r.sessions.Put(id, s)
	r.departAfter(id, r.p.Catalog[video].Duration)
	return s, true
}

// claimDecision hands out the next sequence number of the given kind.
func (r *run) claimDecision(kind DecisionKind) int {
	seq := r.decSeq[kind]
	r.decSeq[kind]++
	return seq
}

// seedDecision installs the (kind, seq) decision-scoped RNG stream on the
// run's seeded scheduler, immediately before the scheduler runs. Deriving
// by decision index rather than drawing from one shared stream is what
// keeps randomized policies paired under common random numbers: decision k
// sees the same stream in every run at this seed, no matter how much
// randomness earlier decisions consumed.
func (r *run) seedDecision(kind DecisionKind, seq int) {
	if r.seeded == nil {
		return
	}
	r.seeded.SeedDecision(r.decRNG.Derive(int64(seq)*int64(numDecisionKinds) + int64(kind)))
}

// feasibleSet returns the servers that could serve video directly right
// now — the choice set a decision record documents. It returns nil without
// scanning when no decision observer is registered, keeping the default
// admission path cost-free.
func (r *run) feasibleSet(video int) []int {
	if len(r.deciders) == 0 {
		return nil
	}
	holders := r.st.Holders(video)
	feasible := make([]int, 0, len(holders))
	for _, s := range holders {
		if r.st.CanServe(s, video) {
			feasible = append(feasible, s)
		}
	}
	return feasible
}

// settleDecision builds and fires the decision record for one settled
// admission attempt; s is nil unless the outcome is Admitted. Observers run
// after the lifecycle events of the settlement (OnAdmit/OnReject/...).
func (r *run) settleDecision(kind DecisionKind, seq int, now float64, video int, s *Session, out Outcome, measured bool, feasible []int) {
	if len(r.deciders) == 0 {
		return
	}
	d := Decision{
		Kind: kind, Seq: seq, Time: now, Video: video,
		Outcome: out, Server: -1, Source: -1, Measured: measured, Feasible: feasible,
	}
	if s != nil {
		d.Server = s.Server
		d.Source = s.Server
		d.Redirected = s.Redirected
		if str, ok := r.st.Lookup(s.ID); ok {
			d.Source = str.Source
		}
	}
	for _, ob := range r.deciders {
		ob.OnDecision(d)
	}
}

// admit settles one arrival: admission, a reject interceptor taking
// ownership (retry queue), or a rejection. Every arrival produces exactly
// one KindArrival decision record, so journals align across policies.
func (r *run) admit(now float64, video int) {
	r.fireArrival(now, video)
	measured := r.warm(now)
	seq := r.claimDecision(KindArrival)
	r.seedDecision(KindArrival, seq)
	feasible := r.feasibleSet(video)
	if s, ok := r.startSession(now, video, measured); ok {
		r.fireAdmit(now, s)
		r.settleDecision(KindArrival, seq, now, video, s, Admitted, measured, feasible)
		return
	}
	for _, ic := range r.rejectors {
		if ic.InterceptReject(now, video, measured) {
			r.settleDecision(KindArrival, seq, now, video, nil, Deferred, measured, feasible)
			return
		}
	}
	r.fireReject(now, video, measured)
	r.settleDecision(KindArrival, seq, now, video, nil, Rejected, measured, feasible)
}

// failServer tears down one server and settles every interrupted stream: a
// tear interceptor may salvage it (session failover), a tear-for-good
// otherwise. Shared by the stochastic and the scripted failure paths.
func (r *run) failServer(now float64, srv int) {
	for _, t := range r.st.FailServer(srv) {
		old, _ := r.sessions.Get(t.ID)
		if old == nil {
			// Unreachable for streams admitted through startSession; keep
			// the zero-value semantics of the pre-hook bookkeeping maps.
			old = &Session{ID: t.ID, Video: t.Video, Server: t.Server}
		}
		r.sessions.Delete(t.ID)
		seq := r.claimDecision(KindFailover)
		feasible := r.feasibleSet(old.Video)
		salvaged := false
		for _, ic := range r.tearers {
			s, ok := ic.InterceptTear(now, old)
			if !ok {
				continue
			}
			r.sessions.Put(s.ID, s)
			r.fireSalvage(now, old, s)
			r.departAfter(s.ID, s.End-now)
			r.settleDecision(KindFailover, seq, now, old.Video, s, Admitted, old.Measured, feasible)
			salvaged = true
			break
		}
		if !salvaged {
			r.fireTear(now, old)
			r.settleDecision(KindFailover, seq, now, old.Video, nil, Rejected, old.Measured, feasible)
		}
	}
}

// scheduleTicker registers tk's periodic ticks across the arrival window:
// the first at t = interval, then every interval while the next tick still
// falls inside the window.
func (r *run) scheduleTicker(tk Ticker) error {
	interval := tk.Interval()
	if interval <= 0 {
		return fmt.Errorf("sim: controller interval must be positive, got %g", interval)
	}
	schedule := func(delay float64, fn func(now float64)) {
		r.mustAfter(delay, fn)
	}
	var tick func(now float64)
	tick = func(now float64) {
		tk.Tick(now, r.st, schedule)
		if now+interval <= r.duration {
			r.mustAfter(interval, tick)
		}
	}
	return r.eng.Schedule(interval, tick)
}

// scheduleTrace replays a materialized request trace. Every request is
// queued up front (32 B each), not one ahead of the clock: an arrival
// scheduled lazily would take a later sequence number than a departure
// already queued for the same instant and fire after it instead of before.
func (r *run) scheduleTrace(tr *workload.Trace) error {
	arrive := r.eng.RegisterOp(func(now float64, video int64) { r.admit(now, int(video)) })
	for _, req := range tr.Requests {
		if req.Video >= r.p.M() {
			return fmt.Errorf("sim: trace request targets video %d outside catalog of %d", req.Video, r.p.M())
		}
		if err := r.eng.ScheduleOp(req.Time, arrive, int64(req.Video)); err != nil {
			return err
		}
	}
	return nil
}

// scheduleArrivals generates online arrivals from the given process with
// Zipf-like video selection, one event ahead of itself.
func (r *run) scheduleArrivals(arrivals workload.ArrivalProcess) error {
	// Derived substreams: arrival gaps and video choices must not interact
	// with any other randomness of the run.
	arrRNG := r.rng.Derive(1)
	vidRNG := r.rng.Derive(2)
	sampler, err := zipf.NewWeightedSampler(r.p.Catalog.Popularities())
	if err != nil {
		return fmt.Errorf("sim: building video sampler: %w", err)
	}
	var arrive Op
	nextArrival := func(now float64) {
		gap := arrivals.Next(arrRNG)
		t := now + gap
		if t > r.duration {
			return
		}
		if err := r.eng.ScheduleOp(t, arrive, 0); err != nil {
			panic(err)
		}
	}
	arrive = r.eng.RegisterOp(func(now float64, _ int64) {
		r.admit(now, sampler.Sample(vidRNG))
		nextArrival(now)
	})
	nextArrival(0)
	return nil
}

// retryHook is the retry-with-backoff admission mechanism as a lifecycle
// hook: it intercepts rejections, re-attempts admission on the backed-off
// schedule, and settles each queued arrival as a success or a renege.
type retryHook struct {
	BaseHook
	r       *run
	retrier *resilience.Retrier
}

func (h *retryHook) InterceptReject(now float64, video int, measured bool) bool {
	if !h.retrier.TryEnqueue() {
		return false
	}
	h.r.fireRetryQueued(now, video, measured)
	h.retryLater(now, video, 0, 0, measured)
	return true
}

// retryLater re-queues one rejected arrival: wait the backed-off delay,
// attempt again, renege once the next delay would exhaust the patience.
// Each re-attempt settles one KindRetry decision — Admitted on success,
// Deferred when it re-queues, Rejected at the renege — so the decision
// journal carries the full settlement history of a deferred arrival.
func (h *retryHook) retryLater(now float64, video, attempt int, waited float64, measured bool) {
	delay, ok := h.retrier.Delay(attempt, waited)
	if !ok {
		h.retrier.Resolve()
		h.r.fireRetryOutcome(now, video, false, measured)
		seq := h.r.claimDecision(KindRetry)
		h.r.settleDecision(KindRetry, seq, now, video, nil, Rejected, measured, h.r.feasibleSet(video))
		return
	}
	h.r.mustAfter(delay, func(tt float64) {
		seq := h.r.claimDecision(KindRetry)
		h.r.seedDecision(KindRetry, seq)
		feasible := h.r.feasibleSet(video)
		if s, ok := h.r.startSession(tt, video, measured); ok {
			h.retrier.Resolve()
			h.r.fireAdmit(tt, s)
			h.r.fireRetryOutcome(tt, video, true, measured)
			h.r.settleDecision(KindRetry, seq, tt, video, s, Admitted, measured, feasible)
			return
		}
		h.r.settleDecision(KindRetry, seq, tt, video, nil, Deferred, measured, feasible)
		h.retryLater(tt, video, attempt+1, waited+delay, measured)
	})
}

// failoverHook is the session-failover mechanism as a lifecycle hook: it
// salvages torn sessions onto surviving replicas, preserving the original
// departure time and measurement status.
type failoverHook struct {
	BaseHook
	r *run
}

func (h *failoverHook) InterceptTear(now float64, old *Session) (*Session, bool) {
	nid, ok := resilience.TryFailover(h.r.st, old.Video, h.r.pol.DegradeFloor)
	if !ok {
		return nil, false
	}
	ns, _ := h.r.st.Lookup(nid)
	return h.r.newSession(Session{
		ID:         nid,
		Video:      old.Video,
		Server:     ns.Server,
		Rate:       ns.Rate,
		Redirected: ns.Redirected,
		Measured:   old.Measured,
		End:        old.End,
	}), true
}

// repairHook runs the re-replication repairer as a ticker and reports its
// completed copies into the collector when the run finishes.
type repairHook struct {
	BaseHook
	repairer *resilience.Repairer
}

func (h *repairHook) Interval() float64 { return h.repairer.Interval() }

func (h *repairHook) Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	h.repairer.Tick(now, st, schedule)
}

func (h *repairHook) OnDone(now float64, col *metrics.Collector) {
	col.ReReplications(h.repairer.Completed())
}

// samplerHook is the periodic load sampler as a ticker: inside the
// measurement window it fires OnSample for every hook (the metrics hook
// records the snapshot).
type samplerHook struct {
	BaseHook
	r        *run
	interval float64
}

func (h *samplerHook) Interval() float64 { return h.interval }

func (h *samplerHook) Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	if h.r.warm(now) {
		h.r.fireSample(now)
	}
}
