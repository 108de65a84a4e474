package sim

import (
	"vodcluster/internal/cluster"
	"vodcluster/internal/metrics"
)

// Session is the lifecycle record of one admitted stream. Hooks receive the
// same *Session across the session's lifecycle events, so pointer identity
// can be used to correlate an admission with its later end, tear, or salvage.
//
// Lifetime: a *Session is valid until the run's OnDone returns. The records
// live in slabs that the next run reuses, so a hook that wants anything of a
// session after the run copies the fields out (as obs.SimHook does).
type Session struct {
	// ID is the stream handle within the run's cluster.State.
	ID cluster.StreamID
	// Video is the catalog rank being streamed.
	Video int
	// Server is the server whose outgoing link carries the stream.
	Server int
	// Rate is the delivered encoding rate in bits/s.
	Rate float64
	// Redirected reports whether the stream crosses the backbone.
	Redirected bool
	// Degraded reports an admission served from a lower-rate copy by the
	// graceful-degradation mechanism.
	Degraded bool
	// Measured reports whether the admission fell inside the measurement
	// window (after warmup). Outcomes of unmeasured sessions must not be
	// counted; hooks that collect statistics check this flag.
	Measured bool
	// End is the session's scheduled departure in virtual seconds.
	End float64
}

// Hook observes the session lifecycle of one simulation run. The engine
// drives the lifecycle admit → serve → (end | tear | salvage) and notifies
// every registered hook at each transition; metrics collection, resilience
// accounting, and runtime controllers are all implemented as hooks rather
// than being wired into the event loop. Hooks run synchronously on the
// simulation goroutine in registration order. They must not retain the
// cluster state beyond the call, nor a *Session beyond OnDone (see Session).
//
// Embed BaseHook to implement only the events of interest.
type Hook interface {
	// OnArrival fires for every arriving request before admission.
	OnArrival(now float64, video int)
	// OnAdmit fires when a session is admitted — at first attempt or after
	// queued retries (an OnRetryOutcome with admitted=true follows then).
	OnAdmit(now float64, s *Session)
	// OnReject fires when an arrival leaves the system unserved with no
	// mechanism (retry queue) taking ownership of it.
	OnReject(now float64, video int, measured bool)
	// OnRetryQueued fires when a rejected arrival enters the retry queue
	// instead of counting as a rejection.
	OnRetryQueued(now float64, video int, measured bool)
	// OnRetryOutcome settles a queued retry: admitted=true after a
	// successful re-attempt (OnAdmit has already fired for the session),
	// admitted=false when the request reneged.
	OnRetryOutcome(now float64, video int, admitted, measured bool)
	// OnEnd fires at a session's normal departure.
	OnEnd(now float64, s *Session)
	// OnTear fires when a server failure tears a session down for good
	// (failover either disabled or out of capacity).
	OnTear(now float64, s *Session)
	// OnSalvage fires when a torn session is failed over onto a surviving
	// replica; old is the torn session, s its salvaged continuation.
	OnSalvage(now float64, old, s *Session)
	// OnSample fires at every load-sampling tick inside the measurement
	// window, before any state mutation the tick may cause.
	OnSample(now float64, st *cluster.State)
	// OnDone fires once after the event queue drains; hooks contribute
	// their final counters to the run's collector here.
	OnDone(now float64, col *metrics.Collector)
}

// BaseHook is a no-op Hook; embed it to implement a subset of the events.
type BaseHook struct{}

func (BaseHook) OnArrival(float64, int)                  {}
func (BaseHook) OnAdmit(float64, *Session)               {}
func (BaseHook) OnReject(float64, int, bool)             {}
func (BaseHook) OnRetryQueued(float64, int, bool)        {}
func (BaseHook) OnRetryOutcome(float64, int, bool, bool) {}
func (BaseHook) OnEnd(float64, *Session)                 {}
func (BaseHook) OnTear(float64, *Session)                {}
func (BaseHook) OnSalvage(float64, *Session, *Session)   {}
func (BaseHook) OnSample(float64, *cluster.State)        {}
func (BaseHook) OnDone(float64, *metrics.Collector)      {}

// RejectInterceptor is an optional interface a Hook may implement to take
// ownership of rejected arrivals before they count as rejections — the
// retry-with-backoff admission mechanism is one. Interceptors are consulted
// in registration order; the first to return true consumes the arrival and
// becomes responsible for eventually settling it (OnRetryOutcome or OnAdmit).
type RejectInterceptor interface {
	InterceptReject(now float64, video int, measured bool) bool
}

// TearInterceptor is an optional interface a Hook may implement to salvage
// sessions torn down by a server failure — session failover is one. The
// first interceptor to return a replacement session wins; returning nil,
// false passes the torn session down the chain (and ultimately to OnTear).
// The replacement's ID must be a stream admitted during the call — stream
// handles ascend, and the run's session table relies on it.
type TearInterceptor interface {
	InterceptTear(now float64, old *Session) (*Session, bool)
}

// Ticker is a periodic hook: Tick fires every Interval() virtual seconds
// across the arrival window, in registration order at equal instants.
// Runtime controllers (dynamic replication), the re-replication repairer,
// and the load sampler all run as tickers. schedule registers a follow-up
// callback after the given delay — e.g. the completion of a replica copy.
type Ticker interface {
	Interval() float64
	Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64)))
}

// metricsHook translates lifecycle events into the run's metrics.Collector,
// honouring the measurement window via Session.Measured.
type metricsHook struct {
	BaseHook
	col   *metrics.Collector
	st    *cluster.State
	loads []float64 // per-server snapshot OnSample refills every tick
}

func (h *metricsHook) OnArrival(now float64, video int) {
	h.col.Arrival()
}

func (h *metricsHook) OnAdmit(now float64, s *Session) {
	if !s.Measured {
		return
	}
	h.col.Request(s.Server, true, s.Redirected)
	h.col.ObserveSessionRate(s.Rate)
	if s.Degraded {
		h.col.Degrade(s.Rate, h.st.NominalRate(s.Video))
	}
}

func (h *metricsHook) OnReject(now float64, video int, measured bool) {
	if measured {
		h.col.Request(-1, false, false)
	}
}

func (h *metricsHook) OnRetryQueued(now float64, video int, measured bool) {
	if measured {
		h.col.RetryEnqueued()
	}
}

func (h *metricsHook) OnRetryOutcome(now float64, video int, admitted, measured bool) {
	if !measured {
		return
	}
	if admitted {
		h.col.RetrySuccess()
	} else {
		h.col.Renege()
	}
}

func (h *metricsHook) OnTear(now float64, s *Session) {
	if s.Measured {
		h.col.Drop(1)
	}
}

func (h *metricsHook) OnSalvage(now float64, old, s *Session) {
	if s.Measured {
		h.col.FailOver(1)
	}
}

func (h *metricsHook) OnSample(now float64, st *cluster.State) {
	for s := range h.loads {
		h.loads[s] = st.UsedBandwidth(s)
	}
	h.col.SampleLoads(h.loads, st.TotalActive())
}

// controllerHook adapts a runtime Controller to the hook interfaces: the
// arrival stream feeds Observe, and the controller's periodic side runs as
// a Ticker.
type controllerHook struct {
	BaseHook
	c Controller
}

func (h *controllerHook) OnArrival(now float64, video int) { h.c.Observe(video) }

func (h *controllerHook) Interval() float64 { return h.c.Interval() }

func (h *controllerHook) Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	h.c.Tick(now, st, schedule)
}
