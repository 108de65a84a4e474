package serve

import (
	"context"
	"sync"
	"time"

	"vodcluster/internal/obs"
)

// Prober checks one backend's liveness. The faults.Injector is the standard
// implementation (probes observe injected crashes and slowness); production
// deployments would probe the real media servers.
type Prober interface {
	// Probe returns nil when backend b is healthy. It must honor ctx's
	// deadline: a probe outliving it counts as failed.
	Probe(ctx context.Context, b int) error
}

// HealthConfig tunes the health-check loop. Durations are wall-clock — the
// probe loop runs on real time regardless of the daemon's compression
// factor, like any external monitoring would.
type HealthConfig struct {
	// Interval is the probe cadence per backend (default 1 s).
	Interval time.Duration
	// Timeout bounds one probe (default Interval/2).
	Timeout time.Duration
	// FailThreshold is how many consecutive probe failures confirm a crash
	// (default 3). The first failure moves an Up backend to Suspect, so a
	// single dropped probe never evicts sessions.
	FailThreshold int
	// RecoverThreshold is how many consecutive clean probes promote a
	// Suspect or Recovering backend back to Up (default 2) — the flap
	// damping that keeps a blinking backend from oscillating in and out of
	// the placement set.
	RecoverThreshold int
}

// withDefaults fills zero-valued tunables.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	return c
}

// HealthChecker is the heartbeat loop driving the backend state machine:
//
//	up → suspect       first failed probe
//	suspect → down     FailThreshold consecutive failures (evicts sessions)
//	suspect → up       RecoverThreshold consecutive successes
//	down → recovering  a probe succeeds again (RecoverBackend)
//	recovering → up    RecoverThreshold consecutive successes
//	recovering → down  any failed probe
//
// Operator-driven Draining backends are skipped entirely — drain is not a
// health condition. One goroutine probes every backend each Interval;
// transitions go through the Server so evictions and the repairer fire
// exactly as they do for manual FailBackend/RecoverBackend.
type HealthChecker struct {
	s      *Server
	prober Prober
	cfg    HealthConfig

	fails []int // consecutive probe failures per backend
	oks   []int // consecutive probe successes per backend

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewHealthChecker attaches a health-check loop to srv. The checker is
// created stopped; call Start. Attaching a checker changes RecoverBackend's
// target state to Recovering, since the prober now owns the promotion to Up.
func NewHealthChecker(srv *Server, prober Prober, cfg HealthConfig) *HealthChecker {
	h := &HealthChecker{
		s:      srv,
		prober: prober,
		cfg:    cfg.withDefaults(),
		fails:  make([]int, srv.Cluster().Servers()),
		oks:    make([]int, srv.Cluster().Servers()),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	srv.hc.Store(h)
	return h
}

// Config returns the defaulted tuning the checker runs with.
func (h *HealthChecker) Config() HealthConfig { return h.cfg }

// Start launches the probe loop.
func (h *HealthChecker) Start() {
	go func() {
		defer close(h.done)
		tick := time.NewTicker(h.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sweep()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it.
func (h *HealthChecker) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// sweep probes every backend once and applies the state transitions.
func (h *HealthChecker) sweep() {
	c := h.s.Cluster()
	for b := 0; b < c.Servers(); b++ {
		if c.State(b) == BackendDraining {
			continue // operator-owned; not a health question
		}
		ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
		err := h.prober.Probe(ctx, b)
		cancel()
		h.s.met.Probe(err == nil)
		if err != nil {
			h.observeFailure(b, err)
		} else {
			h.observeSuccess(b)
		}
	}
}

func (h *HealthChecker) observeFailure(b int, err error) {
	h.oks[b] = 0
	h.fails[b]++
	c := h.s.Cluster()
	switch c.State(b) {
	case BackendUp:
		if h.fails[b] >= h.cfg.FailThreshold {
			h.confirmDown(b, err)
			return
		}
		if c.CASState(b, BackendUp, BackendSuspect) {
			h.s.tracer.Record(obs.Event{TS: h.s.tracer.NowNS(), Kind: obs.KindHealth,
				Server: b, Detail: "suspect: " + err.Error()})
		}
	case BackendSuspect:
		if h.fails[b] >= h.cfg.FailThreshold {
			h.confirmDown(b, err)
		}
	case BackendRecovering:
		// A backend failing probes during its probation goes straight back
		// down; it has already shown it cannot be trusted.
		h.confirmDown(b, err)
	case BackendDown:
		// Still down; keep counting so recovery needs fresh successes.
	}
}

func (h *HealthChecker) observeSuccess(b int) {
	h.fails[b] = 0
	h.oks[b]++
	c := h.s.Cluster()
	switch c.State(b) {
	case BackendSuspect:
		if h.oks[b] >= h.cfg.RecoverThreshold && c.CASState(b, BackendSuspect, BackendUp) {
			h.s.tracer.Record(obs.Event{TS: h.s.tracer.NowNS(), Kind: obs.KindHealth,
				Server: b, Detail: "up"})
		}
	case BackendRecovering:
		if h.oks[b] >= h.cfg.RecoverThreshold && c.CASState(b, BackendRecovering, BackendUp) {
			h.s.tracer.Record(obs.Event{TS: h.s.tracer.NowNS(), Kind: obs.KindHealth,
				Server: b, Detail: "up"})
		}
	case BackendDown:
		// The backend answers again: put it on probation. The clean probe
		// that triggered this counts toward the threshold.
		h.oks[b] = 1
		_ = h.s.RecoverBackend(b)
	}
}

// confirmDown settles a confirmed crash through the Server's failure path.
// Losing the race to a concurrent manual FailBackend is fine — the crash
// was settled exactly once either way.
func (h *HealthChecker) confirmDown(b int, err error) {
	h.oks[b] = 0
	if _, _, ferr := h.s.FailBackend(b); ferr == nil {
		h.s.tracer.Record(obs.Event{TS: h.s.tracer.NowNS(), Kind: obs.KindHealth,
			Server: b, Detail: "confirmed down: " + err.Error()})
	}
}
