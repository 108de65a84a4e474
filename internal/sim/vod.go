package sim

import (
	"fmt"

	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/metrics"
	"vodcluster/internal/resilience"
	"vodcluster/internal/stats"
	"vodcluster/internal/workload"
)

// Config describes one VoD simulation run. Zero-value optional fields take
// the paper's defaults.
type Config struct {
	// Problem and Layout define the cluster and the data layout under test.
	Problem *core.Problem
	Layout  *core.Layout
	// NewScheduler constructs the replica scheduling policy for the run.
	// Nil means the paper's static round-robin. A factory (rather than an
	// instance) lets replicated runs execute in parallel with independent
	// policy state.
	NewScheduler func() cluster.Scheduler
	// Arrivals overrides the arrival process; nil means a Poisson process
	// at Problem.ArrivalRate.
	Arrivals workload.ArrivalProcess
	// Duration is how long arrivals are generated, in seconds; 0 means
	// Problem.PeakPeriod. Already-admitted streams run to completion after
	// arrivals stop.
	Duration float64
	// SampleInterval is the load-imbalance sampling period in seconds;
	// 0 means 60 s (once per simulated minute, the paper's natural grain).
	SampleInterval float64
	// Warmup discards measurements before this time (seconds): arrivals
	// still happen and consume resources, but they are not counted and
	// loads are not sampled. Sessions admitted before the warmup boundary
	// stay unmeasured for their whole lifetime — a post-warmup failure
	// dropping one does not count against FailureRate. The paper measures
	// the whole peak period (default 0); a warm-up removes the
	// empty-cluster transient when steady-state figures are wanted.
	Warmup float64
	// Seed drives all randomness of the run.
	Seed int64
	// Trace, when non-nil, replays a materialized request trace instead of
	// generating arrivals online; Arrivals and Duration describe it then.
	Trace *workload.Trace
	// Failures, when non-nil, injects server failures: each server follows
	// an independent alternating exponential up/down process. A failing
	// server tears down its active streams (counted as dropped unless
	// failover salvages them) and its replicas become unreachable until
	// repair. Failures are injected during the arrival window.
	Failures *avail.FailureModel
	// FailAt schedules deterministic, scripted server failures in addition
	// to (or instead of) the stochastic Failures model — the trace-replay
	// analogue for failure injection. Events may target any virtual time;
	// a non-positive Down leaves the server down for the rest of the run.
	FailAt []avail.FailureEvent
	// Resilience, when non-nil, enables the recovery mechanisms of
	// internal/resilience: session failover, retry-with-backoff admission,
	// graceful bitrate degradation, and re-replication repair. Each is
	// individually toggleable; a policy with every toggle off (or a nil
	// pointer) reproduces the paper-faithful baseline bit for bit. The
	// mechanisms register as lifecycle hooks (see Hook).
	Resilience *resilience.Policy
	// StreamLimit caps concurrent streams per server (disk-I/O bound
	// derived from internal/disk); 0 means network-only admission, the
	// paper's model.
	StreamLimit int
	// NewController, when non-nil, constructs a runtime controller for the
	// run (a factory for the same reason as NewScheduler). The controller
	// observes every arrival and ticks at its own cadence, and may mutate
	// the cluster state — the hook dynamic replication plugs into. The
	// repair mechanism runs its own tick loop, so a dynamic-replication
	// controller and Resilience.Repair can coexist.
	NewController func() Controller
	// Hooks registers additional session-lifecycle observers after the
	// built-in ones (metrics, controller, resilience, sampler). A hook that
	// also implements RejectInterceptor, TearInterceptor, or Ticker joins
	// the respective chain. Hooks are per-run; like NewScheduler, parallel
	// replications must not share stateful hooks — use NewHooks for those.
	Hooks []Hook
	// NewHooks, when non-nil, constructs per-run hooks (a factory for the
	// same reason as NewScheduler); the result is appended after Hooks.
	NewHooks func() []Hook
}

// Controller is a runtime policy that observes the workload and adjusts the
// cluster while the simulation runs (e.g. dynamic replication).
type Controller interface {
	// Observe is called for every arriving request with the video rank.
	Observe(video int)
	// Interval returns the cadence of Tick calls in seconds.
	Interval() float64
	// Tick runs one adjustment round. schedule registers a follow-up
	// callback after the given delay (virtual seconds), e.g. the
	// completion of a replica migration.
	Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64)))
}

// Run executes one simulation and returns its measurements.
//
// The run is organized as an explicit session lifecycle —
// admit → serve → (end | tear | salvage) — driven by the discrete-event
// engine. Everything that observes or bends that lifecycle registers as a
// Hook: metrics collection, the resilience mechanisms, runtime controllers,
// and the periodic load sampler. With no hooks beyond the defaults the run
// reproduces the paper's model bit for bit.
func Run(cfg Config) (metrics.Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	// The run borrows the storage of an earlier one. It goes back to the
	// pool (unless the run outgrew maxPooled) on every return, failed set-up
	// included, but not past a panic: a buffer abandoned mid-event is not
	// worth reasoning about.
	bufs := bufferPool.Get().(*runBuffers)
	r.swapBuffers(bufs)
	res, err := r.execute(cfg)
	r.swapBuffers(bufs)
	if bufs.poolable() {
		bufs.reset()
		bufferPool.Put(bufs)
	}
	return res, err
}

// execute seeds the event queue, drains it, and collects the result.
func (r *run) execute(cfg Config) (metrics.Result, error) {
	if err := r.schedule(cfg); err != nil {
		return metrics.Result{}, err
	}
	events := r.eng.RunAll()
	r.fireDone(r.eng.Now())
	res := r.col.Result()
	res.Events = events
	return res, nil
}

// newRun validates the configuration and assembles the run: cluster state,
// scheduler, collector, and the hook chain.
func newRun(cfg Config) (*run, error) {
	if cfg.Problem == nil || cfg.Layout == nil {
		return nil, fmt.Errorf("sim: Problem and Layout are required")
	}
	p := cfg.Problem
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var opts []cluster.Option
	if cfg.StreamLimit > 0 {
		opts = append(opts, cluster.WithStreamLimit(cfg.StreamLimit))
	}
	st, err := cluster.New(p, cfg.Layout, opts...)
	if err != nil {
		return nil, err
	}
	sched := cluster.Scheduler(cluster.StaticRoundRobin{})
	if cfg.NewScheduler != nil {
		sched = cfg.NewScheduler()
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = p.PeakPeriod
	}
	sample := cfg.SampleInterval
	if sample <= 0 {
		sample = 60
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("sim: warmup must be non-negative, got %g", cfg.Warmup)
	}

	var pol resilience.Policy
	if cfg.Resilience != nil {
		pol = cfg.Resilience.WithDefaults()
		if err := pol.Validate(); err != nil {
			return nil, err
		}
	}
	var degrader *resilience.Degrader
	if pol.Degrade {
		degrader = resilience.NewDegrader(sched, pol.DegradeFloor)
		sched = degrader
	}

	capacities := make([]float64, p.N())
	for s := range capacities {
		capacities[s] = p.BandwidthOf(s)
	}
	rng := stats.NewRNG(cfg.Seed)

	r := &run{
		p:        p,
		st:       st,
		eng:      NewEngine(),
		sched:    sched,
		col:      metrics.NewCollector(capacities),
		rng:      rng,
		duration: duration,
		warmup:   cfg.Warmup,
		pol:      pol,
		degrader: degrader,
	}
	r.opDepart = r.eng.RegisterOp(r.depart)
	// Randomized policies (cluster.SeededScheduler, possibly under the
	// degrade/redirect decorators) draw per-decision RNG streams derived
	// from their own substream of the run seed — split from the arrival,
	// video, retry, and failure streams, so enabling them shifts no other
	// randomness of the run.
	if r.seeded = seededScheduler(r.sched); r.seeded != nil {
		r.decRNG = rng.Derive(4)
	}

	// Hook registration order fixes both the event order hooks observe and
	// the scheduling order of tickers (ties at one instant fire FIFO):
	// metrics first, then the controller, the resilience mechanisms, the
	// repairer, the load sampler, and finally any caller-supplied hooks.
	r.register(&metricsHook{col: r.col, st: st, loads: make([]float64, p.N())})
	if cfg.NewController != nil {
		r.register(&controllerHook{c: cfg.NewController()})
	}
	if pol.Retry {
		// A derived substream: enabling retry must not shift the arrival or
		// failure randomness of the run.
		r.register(&retryHook{r: r, retrier: resilience.NewRetrier(pol, rng.Derive(3))})
	}
	if pol.Failover {
		r.register(&failoverHook{r: r})
	}
	if pol.Repair {
		repairer, err := resilience.NewRepairer(p, pol)
		if err != nil {
			return nil, err
		}
		r.register(&repairHook{repairer: repairer})
	}
	r.register(&samplerHook{r: r, interval: sample})
	for _, h := range cfg.Hooks {
		r.register(h)
	}
	if cfg.NewHooks != nil {
		for _, h := range cfg.NewHooks() {
			r.register(h)
		}
	}
	return r, nil
}

// seededScheduler walks a scheduler's decorator chain (redirect,
// degradation — anything exposing Unwrap) looking for a policy that wants
// per-decision RNG streams.
func seededScheduler(s cluster.Scheduler) cluster.SeededScheduler {
	for s != nil {
		if ss, ok := s.(cluster.SeededScheduler); ok {
			return ss
		}
		u, ok := s.(interface{ Unwrap() cluster.Scheduler })
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// schedule seeds the event queue: arrivals (trace replay or generated),
// failure injection, and every registered ticker.
func (r *run) schedule(cfg Config) error {
	if cfg.Trace != nil {
		if err := r.scheduleTrace(cfg.Trace); err != nil {
			return err
		}
	} else {
		arrivals := cfg.Arrivals
		if arrivals == nil {
			if r.p.ArrivalRate <= 0 {
				return fmt.Errorf("sim: problem has no arrival rate and no trace/process was supplied")
			}
			arrivals = workload.Poisson{Lambda: r.p.ArrivalRate}
		}
		if err := r.scheduleArrivals(arrivals); err != nil {
			return err
		}
	}

	// Stochastic failure injection: one alternating up/down process per
	// server, active during the arrival window.
	if cfg.Failures != nil {
		f := *cfg.Failures
		if err := f.Validate(); err != nil {
			return err
		}
		for s := 0; s < r.p.N(); s++ {
			s := s
			failRNG := r.rng.Derive(100 + int64(s))
			var scheduleFailure func(now float64)
			scheduleFailure = func(now float64) {
				at := now + f.NextUptime(failRNG)
				if at > r.duration {
					return
				}
				if err := r.eng.Schedule(at, func(tt float64) {
					r.failServer(tt, s)
					repairAt := tt + f.NextDowntime(failRNG)
					if err := r.eng.Schedule(repairAt, func(rt float64) {
						r.st.RestoreServer(s)
						scheduleFailure(rt)
					}); err != nil {
						panic(err)
					}
				}); err != nil {
					panic(err)
				}
			}
			scheduleFailure(0)
		}
	}

	// Scripted failure injection.
	for _, ev := range cfg.FailAt {
		ev := ev
		if err := ev.Validate(r.p.N()); err != nil {
			return err
		}
		if err := r.eng.Schedule(ev.At, func(tt float64) {
			r.failServer(tt, ev.Server)
			if ev.Down > 0 {
				r.mustAfter(ev.Down, func(float64) {
					r.st.RestoreServer(ev.Server)
				})
			}
		}); err != nil {
			return err
		}
	}

	for _, tk := range r.tickers {
		if err := r.scheduleTicker(tk); err != nil {
			return err
		}
	}
	return nil
}
