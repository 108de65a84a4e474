// Package serve is the live serving layer: it turns the planner/simulator
// stack into a running cluster dispatch daemon. A Server loads a
// problem/layout pair (from the replicate/place pipeline or a persisted
// plan), tracks per-backend outgoing bandwidth with lock-free atomic
// accounting (Cluster), and admits, rejects, or redirects session requests
// through an admission Policy — a registered policy's rank (the same
// cluster.Ranker the simulator's scheduler calls) booked by compare-and-swap,
// falling back on the simulator's backbone redirection rule
// (cluster.Redirect) when the problem has a backbone.
//
// Admission runs on the calling goroutine: the policy decides and reserves
// by compare-and-swap, and the session is registered, with its
// (time-compressed) deadline, in one of Config.Shards registry partitions,
// whose one goroutine fires expiries. Natural expiry, client close, backend
// drain without a failover target, and daemon shutdown each remove the
// registry entry, and whichever removes it releases the session's bandwidth
// reservation, exactly once. Backend drain marks a server ineligible for new
// placements and fails its active sessions over to surviving replica holders
// (resilience semantics); daemon drain stops admissions and waits for the
// active sessions to run out.
//
// The paper connection: this is §5's dispatch model made operational —
// admission control on per-server outgoing bandwidth, replica choice by the
// configured scheduling policy, rejection when every replica holder is
// saturated — so measured live rejection rates can be cross-validated
// against sim.Run on the same request trace (see cmd/vodload -validate).
package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/obs"
	"vodcluster/internal/resilience"
)

// Outcome classifies one admission decision.
type Outcome string

// Admission outcomes reported by Server.Open and the HTTP API.
const (
	OutcomeAccepted Outcome = "accepted"
	OutcomeRejected Outcome = "rejected"
	OutcomeDraining Outcome = "draining"
)

// SessionInfo is the public record of an admitted session.
type SessionInfo struct {
	ID         int64   `json:"id"`
	Video      int     `json:"video"`
	Server     int     `json:"server"`
	Source     int     `json:"source"`
	RateBps    int64   `json:"rate_bps"`
	Redirected bool    `json:"redirected"`
	ExpiresInS float64 `json:"expires_in_s"`
}

// session is the server-side record of one live grant. Its partition's
// expiry heap holds the deadline by id, so the record carries no lifetime
// handle and is pooled.
type session struct {
	id    int64
	video int
	grant Grant
}

// Config tunes a Server beyond the problem/layout pair.
type Config struct {
	// Policy names the admission policy (see PolicyNames); empty means
	// least-loaded.
	Policy string
	// Compress divides every session's wall-clock duration: at Compress C a
	// D-second video holds its bandwidth for D/C seconds of real time, so a
	// recorded trace replayed C× faster reproduces the simulator's
	// occupancy process in C× less wall time. 0 means 1 (real time).
	Compress float64
	// Tracer, when non-nil, records every session lifecycle transition
	// (arrive → admit/reject → end/tear/failover) into its ring buffer and
	// exposes GET /debug/trace on the HTTP API. Nil disables tracing at the
	// cost of one branch per event.
	Tracer *obs.Tracer
	// Resilience selects the failure-handling mechanisms beyond failover,
	// with the type and the rules sim.Config.Resilience runs, so one policy
	// configures both sides. Retry queues a capacity-rejected request for
	// re-admission with exponential backoff and jitter, in compressed
	// virtual time, until admitted or out of patience. Repair starts a
	// re-replication repairer (see Server.Repairer). The daemon always fails
	// over and cannot serve degraded copies, so New rejects Failover false
	// and Degrade true. Nil means failover only.
	Resilience *resilience.Policy
	// Shards splits the session registry into that many partitions, each
	// with its own lock, expiry heap and expiry goroutine (DESIGN.md §15).
	// Admission decisions do not depend on it: every policy commits on the
	// calling goroutine at any partition count. 0 means 1; values above the
	// server count are clamped to it.
	Shards int
}

// Server is the live dispatch engine. Create with New; all exported methods
// are safe for concurrent use.
type Server struct {
	c        *Cluster
	pol      Policy
	met      *Metrics
	tracer   *obs.Tracer
	compress float64
	epoch    time.Time // zero of nowNS

	baseCtx  context.Context
	baseStop context.CancelFunc

	parts    []*partition // session registry partitions; id mod len picks one
	sessPool sync.Pool    // *session
	nextID   atomic.Int64
	activeN  atomic.Int64 // live sessions across every partition
	draining atomic.Bool

	retry *retrier  // nil unless Config.Resilience enables retry
	rep   *Repairer // nil unless Config.Resilience enables repair

	hc  atomic.Pointer[HealthChecker] // attached health-check loop, if any
	reb atomic.Pointer[Rebalancer]    // attached placement controller, if any
	inj atomic.Pointer[faults.Injector]
}

// New builds a Server for a validated problem/layout pair.
func New(p *core.Problem, layout *core.Layout, cfg Config) (*Server, error) {
	c, err := NewCluster(p, layout)
	if err != nil {
		return nil, err
	}
	pol, err := NewPolicy(cfg.Policy, c)
	if err != nil {
		return nil, err
	}
	compress := cfg.Compress
	if compress == 0 {
		compress = 1
	}
	if compress < 0 {
		return nil, fmt.Errorf("serve: compression factor must be positive, got %g", compress)
	}
	var res resilience.Policy
	if cfg.Resilience != nil {
		if !cfg.Resilience.Failover {
			return nil, fmt.Errorf("serve: Config.Resilience.Failover must be true: the daemon always fails over")
		}
		if cfg.Resilience.Degrade {
			return nil, fmt.Errorf("serve: Config.Resilience.Degrade is not supported: the daemon serves full-rate copies only")
		}
		res = cfg.Resilience.WithDefaults()
		if err := res.Validate(); err != nil {
			return nil, err
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		c:        c,
		pol:      pol,
		met:      NewMetrics(streamCeiling(p)),
		tracer:   cfg.Tracer,
		compress: compress,
		epoch:    time.Now(),
		baseCtx:  ctx,
		baseStop: stop,
	}
	if res.Retry {
		s.retry = newRetrier(s, res)
	}
	if res.Repair {
		r, err := newRepairer(s, res)
		if err != nil {
			stop()
			return nil, err
		}
		s.rep = r
	}
	s.startPartitions(min(max(cfg.Shards, 1), c.Servers()))
	return s, nil
}

// streamCeiling bounds how many sessions the cluster can ever hold
// concurrently — total outgoing capacity over the cheapest encoding rate —
// which sizes the queue-depth histogram so its range covers exactly the
// reachable depths.
func streamCeiling(p *core.Problem) int {
	total := 0.0
	for s := 0; s < p.N(); s++ {
		total += p.BandwidthOf(s)
	}
	minRate := 0.0
	for _, v := range p.Catalog {
		if minRate == 0 || (v.BitRate > 0 && v.BitRate < minRate) {
			minRate = v.BitRate
		}
	}
	if minRate <= 0 {
		return 1024
	}
	n := int(total / minRate)
	if n < 16 {
		n = 16
	}
	return n
}

// Cluster exposes the concurrent accounting state (for metrics and tests).
func (s *Server) Cluster() *Cluster { return s.c }

// Metrics exposes the instrument panel.
func (s *Server) Metrics() *Metrics { return s.met }

// Tracer exposes the session-lifecycle tracer; nil when tracing is off.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// PolicyName reports the active admission policy.
func (s *Server) PolicyName() string { return s.pol.Name() }

// Compress reports the time-compression factor sessions run under.
func (s *Server) Compress() float64 { return s.compress }

// Active returns the number of live sessions.
func (s *Server) Active() int64 { return s.activeN.Load() }

// Draining reports whether the daemon refuses new sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

// wallDuration returns the compressed wall-clock lifetime of video v.
func (s *Server) wallDuration(v int) time.Duration {
	return s.wall(s.c.Problem().Catalog[v].Duration)
}

// wall converts virtual seconds to the compressed wall-clock duration,
// clamped to the longest time.Duration.
func (s *Server) wall(seconds float64) time.Duration {
	ns := seconds / s.compress * float64(time.Second)
	if ns >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// nowNS returns the monotonic nanoseconds since New: one clock read where
// time.Now takes two. It stamps admission latencies and session deadlines,
// and is the admission path's one clock seam.
func (s *Server) nowNS() int64 { return int64(time.Since(s.epoch)) }

// Open runs one admission decision for video v. On acceptance the session
// is registered with its deadline and releases its reservation when it
// expires, is closed, or is dropped. The returned outcome distinguishes a
// capacity rejection from a drain refusal.
func (s *Server) Open(v int) (SessionInfo, Outcome, error) {
	arriveNS := s.tracer.NowNS()
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindArrive, Video: v})
	if v < 0 || v >= s.c.Videos() {
		s.met.BadVideo()
		return SessionInfo{}, OutcomeRejected, fmt.Errorf("serve: video %d outside catalog of %d", v, s.c.Videos())
	}
	s.observeDemand(v)
	info, outcome := s.attempt(v, arriveNS, true)
	return info, outcome, nil
}

// attempt runs one admission attempt on the calling goroutine: the policy
// decides and reserves, then the session is registered in its partition.
// settleReject controls whether a capacity rejection is recorded as a
// settled decision: the retry path passes false for attempts it may later
// convert into an acceptance and records the one final outcome itself, so
// retries never inflate the request counters. Accepted and draining outcomes
// are always final and always recorded here.
func (s *Server) attempt(v int, arriveNS int64, settleReject bool) (SessionInfo, Outcome) {
	start := s.nowNS()
	s.met.ObserveQueueDepth(s.activeN.Load())
	if s.draining.Load() {
		return s.refuse(v, arriveNS, start)
	}
	for {
		g, ok := s.pol.Admit(v)
		if !ok {
			if settleReject {
				s.met.Decision(false, false, false, time.Duration(s.nowNS()-start))
				s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindReject, Video: v,
					DurNS: s.tracer.NowNS() - arriveNS})
			}
			return SessionInfo{}, OutcomeRejected
		}
		id := s.nextID.Add(1)
		wall := s.wallDuration(v)
		switch s.partOf(id).insert(id, g, deadline(start, wall)) {
		case insertStopped:
			s.pol.Release(g)
			return s.refuse(v, arriveNS, start)
		case insertEvicted:
			// The source lost its replica between the decision and the
			// insert: give the reservation back, uncounted, and decide again.
			s.pol.Release(g)
			continue
		}
		s.met.Decision(true, g.Redirected, false, time.Duration(s.nowNS()-start))
		s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindAdmit,
			Session: id, Video: v, Server: g.Server,
			DurNS: s.tracer.NowNS() - arriveNS})
		return SessionInfo{
			ID:         id,
			Video:      v,
			Server:     g.Server,
			Source:     g.Source,
			RateBps:    g.Rate,
			Redirected: g.Redirected,
			ExpiresInS: wall.Seconds(),
		}, OutcomeAccepted
	}
}

// deadline returns start + d on the nowNS clock, saturating at the largest
// int64: wall clamps an unbounded lifetime to the longest time.Duration, and
// a wrapped sum would expire that session at once.
func deadline(start int64, d time.Duration) int64 {
	if int64(d) > math.MaxInt64-start {
		return math.MaxInt64
	}
	return start + int64(d)
}

// refuse settles one request as a drain refusal; start is its nowNS stamp.
func (s *Server) refuse(v int, arriveNS, start int64) (SessionInfo, Outcome) {
	s.met.Decision(false, false, true, time.Duration(s.nowNS()-start))
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindDrain, Video: v,
		DurNS: s.tracer.NowNS() - arriveNS})
	return SessionInfo{}, OutcomeDraining
}

// end releases a session that its settler has just removed from the
// registry, counts how it ended, and recycles the record. natural reports a
// completed playback rather than a close or shutdown.
func (s *Server) end(sess *session, natural bool) {
	id, video, g := sess.id, sess.video, sess.grant
	s.putSession(sess)
	s.pol.Release(g)
	s.activeN.Add(-1)
	if natural {
		s.met.Completed()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindEnd,
			Session: id, Video: video, Server: g.Server})
	} else {
		s.met.Canceled()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
			Session: id, Video: video, Server: g.Server, Detail: "canceled"})
	}
}

// Close ends session id early (the client hung up). It reports whether the
// session was live.
func (s *Server) Close(id int64) bool {
	if id <= 0 {
		return false
	}
	return s.partOf(id).settle(id, false)
}

// landRepair publishes a repaired replica of video v on backend dst. It
// reports whether the copy became a new replica (false: dst already held
// one).
func (s *Server) landRepair(v, dst int) bool { return s.c.AddHolder(v, dst) }

// claimState moves backend b into target (BackendDraining or BackendDown)
// from whatever state it is in, returning the typed error for states the
// transition is not allowed from. The CAS loop makes exactly one of several
// racing claimants win, so every drain or crash is settled exactly once.
func (s *Server) claimState(b int, target BackendState) error {
	for {
		st := s.c.State(b)
		if st == BackendDown {
			return ErrBackendDown
		}
		if st == BackendDraining && target == BackendDraining {
			return ErrBackendDraining
		}
		if s.c.CASState(b, st, target) {
			return nil
		}
	}
}

// DrainBackend takes backend b out of service cooperatively: no new
// placements land on it and every session it was serving (or sourcing, for
// redirected streams) is failed over to a surviving replica holder where
// capacity allows. Sessions with no failover target are dropped. It returns
// the failed-over and dropped counts; the error is a *BackendRangeError for
// an index outside the cluster, ErrBackendDraining when the backend is
// already draining, or ErrBackendDown when it has crashed.
func (s *Server) DrainBackend(b int) (failedOver, dropped int, err error) {
	if b < 0 || b >= s.c.Servers() {
		return 0, 0, &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if err := s.claimState(b, BackendDraining); err != nil {
		return 0, 0, err
	}
	failedOver, dropped = s.evictSessions(b, "drained")
	return failedOver, dropped, nil
}

// FailBackend crashes backend b: it goes BackendDown immediately (unlike the
// cooperative drain there is no grace — its replicas become unreachable and
// count against live replication, which is what wakes the repairer), and
// every session it carried is failed over or torn. Concurrent FailBackend
// calls settle the crash exactly once: the losers get ErrBackendDown.
func (s *Server) FailBackend(b int) (failedOver, dropped int, err error) {
	if b < 0 || b >= s.c.Servers() {
		return 0, 0, &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if err := s.claimState(b, BackendDown); err != nil {
		return 0, 0, err
	}
	s.met.BackendFailed()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindHealth,
		Server: b, Detail: "down"})
	failedOver, dropped = s.evictSessions(b, "failed")
	if s.rep != nil {
		s.rep.Kick() // scan for under-replicated videos now, not at the next tick
	}
	return failedOver, dropped, nil
}

// evictSessions settles every session that ineligible backend b was serving
// or sourcing: failover onto a surviving replica holder where capacity
// allows, teardown otherwise. The snapshot carries (id, video) pairs, never
// *session: sessions are pooled, and one that ends after the snapshot may
// already be another admission's. A live session never leaves its partition
// — failover swaps its grant in place under the partition lock — so a racing
// Close or expiry always finds it and settles whichever grant is current, and
// every affected session's bandwidth is released exactly once. The loop
// repeats until no session references b, catching sessions another
// backend's eviction concurrently failed over *onto* b. Each pass settles
// the sessions in ID (admission) order, the order State.FailServer tears
// them in, so which ones fail over and which are dropped when the survivors
// run short does not depend on table order or the partition count.
func (s *Server) evictSessions(b int, cause string) (failedOver, dropped int) {
	type ref struct {
		id    int64
		video int
	}
	var affected []ref
	for {
		affected = affected[:0]
		for _, p := range s.parts {
			p.mu.Lock()
			p.reg.each(func(sess *session) {
				if sess.grant.Server == b || sess.grant.Source == b {
					affected = append(affected, ref{sess.id, sess.video})
				}
			})
			p.mu.Unlock()
		}
		if len(affected) == 0 {
			return failedOver, dropped
		}
		slices.SortFunc(affected, func(x, y ref) int { return cmp.Compare(x.id, y.id) })
		for _, r := range affected {
			ng, ok := s.pol.Failover(r.video, b)
			p := s.partOf(r.id)
			p.mu.Lock()
			sess := p.reg.get(r.id)
			if sess == nil || (sess.grant.Server != b && sess.grant.Source != b) {
				// Ended or moved concurrently; undo our failover reservation.
				p.mu.Unlock()
				if ok {
					s.pol.Release(ng)
				}
				continue
			}
			// The target can be drained or crashed between our reservation
			// and this commit, and its own eviction scan may already have
			// passed this partition; its source can likewise lose the replica
			// to EvictReplica, whose pinned re-check may already have passed.
			// Both reads happen under the lock those scans take too, so one of
			// the two always sees the other: never commit onto an ineligible
			// server or a non-holder, drop the session instead.
			moved := ok && s.c.Eligible(ng.Server) && holds(s.c, r.video, ng.Source)
			old := sess.grant
			if moved {
				sess.grant = ng
			} else {
				p.reg.del(r.id)
			}
			p.mu.Unlock()
			s.pol.Release(old)
			if moved {
				s.met.FailedOver()
				s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindFailover,
					Session: r.id, Video: r.video, Server: ng.Server,
					Detail: "from server " + fmt.Sprint(b)})
				failedOver++
				continue
			}
			if ok {
				s.pol.Release(ng)
			}
			s.putSession(sess)
			s.activeN.Add(-1)
			s.met.Dropped()
			s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindTear,
				Session: r.id, Video: r.video, Server: b, Detail: cause})
			dropped++
		}
	}
}

// RestoreBackend returns a drained backend to service. A crashed (Down)
// backend does not restore this way — recovery from a crash goes through
// RecoverBackend so re-replicated state is handled deliberately.
func (s *Server) RestoreBackend(b int) error {
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if s.c.State(b) == BackendDown {
		return ErrBackendDown
	}
	s.c.SetState(b, BackendUp)
	return nil
}

// RecoverBackend brings a crashed backend back: Down → Recovering when a
// health checker is attached (it promotes the backend to Up after enough
// clean probes — flap damping), Down → Up directly otherwise. A backend
// that is not Down returns ErrBackendNotDown.
func (s *Server) RecoverBackend(b int) error {
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	target := BackendUp
	if s.hc.Load() != nil {
		target = BackendRecovering
	}
	if !s.c.CASState(b, BackendDown, target) {
		return ErrBackendNotDown
	}
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindHealth,
		Server: b, Detail: target.String()})
	return nil
}

// Drain gracefully stops the daemon: new sessions are refused with the
// draining outcome, and Drain waits until every active session ends or ctx
// expires, whichever is first. On ctx expiry the partitions are stopped,
// which force-settles the remaining sessions before return.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for s.activeN.Load() != 0 {
		select {
		case <-ctx.Done():
			s.baseStop()
			s.waitPartitions()
			return fmt.Errorf("serve: drain timed out; %w", ctx.Err())
		case <-t.C:
		}
	}
	return nil
}

// Shutdown force-cancels every session, stops any attached health-check and
// repair loops, and waits for their goroutines.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	if h := s.hc.Load(); h != nil {
		h.Stop()
	}
	if s.rep != nil {
		s.rep.stopAndWait()
	}
	if rp := s.reb.Load(); rp != nil {
		(*rp).Stop()
	}
	s.baseStop()
	s.waitPartitions()
}
