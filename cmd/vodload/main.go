// Command vodload is an open-loop load generator for vodserved: it replays
// a workload.Trace (or generates Poisson/Zipf arrivals) against the daemon
// at a configurable time-compression factor and reports accepted, rejected,
// and redirected counts plus admission-latency percentiles.
//
//	vodload -addr http://127.0.0.1:8370 -trace trace.json -compress 60
//	vodload -selftest -rate 8000 -burst 1          # in-process daemon
//	vodload -selftest -validate                    # live vs sim.Run check
//
// With -validate, the same trace also runs through the discrete-event
// simulator (sim.Run) and the live and simulated rejection rates must agree
// within -tolerance percentage points — the cross-validation tying the
// serving layer back to the paper's Fig. 4 predictions.
//
// With -faults, a scripted fault schedule replays against the daemon over
// HTTP while the trace runs: backends crash, recover, drain, and restore at
// their scheduled virtual times (the failure drill of DESIGN.md §12). The
// selftest daemon then runs with the re-replication repairer attached so it
// heals itself, -validate feeds the same failures to sim.Run
// (Config.FailAt + Resilience) and additionally compares the post-failure
// rejection rates — live decisions dispatched after the first crash against
// a simulator run warmed up to that instant.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"vodcluster"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/report"
	"vodcluster/internal/resilience"
	"vodcluster/internal/serve"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vodload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "", "daemon base URL, e.g. http://127.0.0.1:8370; empty requires -selftest")
	selftest := flag.Bool("selftest", false, "start an in-process vodserved on a loopback port and load it")
	scenarioPath := flag.String("scenario", "", "JSON scenario for the layout (selftest/validate); empty uses the paper defaults")
	planPath := flag.String("plan", "", "plan file for the layout (selftest/validate)")
	policy := flag.String("policy", "least-loaded", "admission policy of the in-process daemon (selftest)")
	shards := flag.Int("shards", 1, "session registry partitions of the in-process daemon (selftest); every policy admits at any count")
	listeners := flag.Int("listeners", 0, "sharded ingress accept loops of the in-process daemon (selftest); 0 serves the plain net/http mux")
	conns := flag.Int("conns", 0, "persistent fast connections the replay drives; 0 picks 4×GOMAXPROCS clamped to [8,64]")
	tracePath := flag.String("trace", "", "replay this trace file instead of generating arrivals")
	rate := flag.Float64("rate", 8000, "generated load: admission decisions per wall second")
	burst := flag.Float64("burst", 1, "generated load: burst length in wall seconds")
	compress := flag.Float64("compress", 3600, "time-compression factor; must match the daemon's -compress")
	seed := flag.Int64("seed", 42, "seed for generated arrivals")
	validate := flag.Bool("validate", false, "cross-validate the live rejection rate against sim.Run on the same trace")
	tolerance := flag.Float64("tolerance", 2, "allowed |live−sim| rejection-rate gap in percentage points (-validate)")
	faultsPath := flag.String("faults", "", "replay this JSON fault schedule against the daemon over HTTP during the trace")
	driftAt := flag.Float64("drift-at", 0, "re-rank the popularity curve at this virtual time (seconds); 0 disables")
	driftRotate := flag.Int("drift-rotate", 0, "drift rank-rotation distance; 0 means half the catalog")
	driftShuffle := flag.Bool("drift-shuffle", false, "drift with a seeded random permutation instead of a rotation")
	driftSeed := flag.Int64("drift-seed", 1, "seed of the -drift-shuffle permutation")
	flag.Parse()

	if !*selftest && *addr == "" {
		return fmt.Errorf("need -addr or -selftest")
	}
	if *compress <= 0 {
		return fmt.Errorf("-compress must be positive, got %g", *compress)
	}
	if *tracePath == "" && (*rate <= 0 || *burst <= 0) {
		return fmt.Errorf("-rate and -burst must be positive, got %g and %g", *rate, *burst)
	}

	p, layout, err := loadLayout(*scenarioPath, *planPath)
	if err != nil {
		return err
	}

	var sched *faults.Schedule
	if *faultsPath != "" {
		f, err := os.Open(*faultsPath)
		if err != nil {
			return err
		}
		sched, err = faults.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := sched.Validate(p.N()); err != nil {
			return err
		}
	}

	// The trace drives both the live replay and (under -validate) the
	// simulator, so one generation covers both sides.
	var tr *workload.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		tr, err = workload.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		theta := estimateThetaOf(p)
		gen, err := workload.NewGenerator(workload.Poisson{Lambda: *rate / *compress}, p.M(), theta)
		if err != nil {
			return err
		}
		tr = gen.Generate(*burst**compress, *seed)
	}
	if len(tr.Requests) == 0 {
		return fmt.Errorf("trace is empty; raise -rate or -burst")
	}
	drift := workload.Drift{At: *driftAt, Rotate: *driftRotate, Shuffle: *driftShuffle, Seed: *driftSeed}
	if drift.Enabled() {
		if tr, err = drift.Apply(tr); err != nil {
			return err
		}
		fmt.Printf("drift: popularity re-ranked at t=%gs (shuffle=%v)\n", drift.At, drift.Shuffle)
	}

	base := *addr
	if *selftest {
		// A fault drill needs the daemon to heal itself, so the repairer
		// rides along exactly when a schedule is loaded.
		srv, stop, baseURL, err := startInProcess(p, layout, *policy, *compress, *shards, *listeners, sched != nil)
		if err != nil {
			return err
		}
		defer stop()
		defer srv.Shutdown()
		base = baseURL
		fmt.Printf("selftest daemon: %s (policy %s, compress %gx, %d shards)\n", base, srv.PolicyName(), srv.Compress(), srv.Shards())
	}

	client := serve.NewClient(base)
	client.Conns = *conns
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The fault schedule replays over HTTP concurrently with the trace, from
	// the same starting instant, so an event at virtual time t lands t/compress
	// wall seconds into the replay — on the same clock the requests use.
	var schedErr chan error
	if sched != nil {
		schedErr = make(chan error, 1)
		go func() {
			schedErr <- sched.Run(ctx, *compress, func(e faults.Event) error {
				fmt.Printf("fault: %s backend %d (t=%gs)\n", e.Action, e.Backend, e.At)
				return client.Fault(ctx, e)
			})
		}()
	}
	rep, err := client.Replay(ctx, tr, *compress)
	if err != nil {
		return err
	}
	if schedErr != nil {
		if err := <-schedErr; err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d transport errors during replay; first: %v", rep.Errors, rep.FirstError)
	}

	if err := printReport(tr, rep, sched, *compress); err != nil {
		return err
	}

	// A generator that cannot sustain the requested rate silently measures
	// itself, not the daemon: admission latency and throughput both look
	// rosier under a thinner-than-asked-for load. Compare what the dispatcher
	// achieved against what the trace demanded and say so out loud.
	requested, achieved, bound := offeredRate(tr, rep, *compress)
	fmt.Printf("offered load: %.0f of %.0f requested decisions/sec (max dispatch lag %.1fms)\n",
		achieved, requested, rep.DispatchLagMax.Seconds()*1e3)
	if bound {
		fmt.Printf("WARNING: generator under-drove the daemon (offered %.0f/sec of the requested %.0f/sec); results are generator-bound — raise -conns or lower -rate\n",
			achieved, requested)
	}

	// Satellite duty of the smoke path: the daemon's own /metrics must agree
	// that sessions were admitted — a scrape-level liveness check, not just a
	// client-side count.
	accepted, err := scrapeAccepted(client)
	if err != nil {
		return err
	}
	if accepted == 0 && rep.Accepted > 0 {
		return fmt.Errorf("/metrics reports zero accepted sessions, client saw %d", rep.Accepted)
	}
	fmt.Printf("/metrics scrape: %d accepted admission decisions\n", accepted)
	if rep.Accepted == 0 {
		return fmt.Errorf("no sessions admitted; the daemon rejected the whole burst")
	}

	if *validate {
		return crossValidate(p, layout, *policy, tr, rep, sched, *seed, *tolerance)
	}
	return nil
}

// postFailureWindow returns the virtual time of the schedule's first crash
// and whether there is a post-failure window to measure at all.
func postFailureWindow(tr *workload.Trace, sched *faults.Schedule) (float64, bool) {
	if sched == nil {
		return 0, false
	}
	failAt := sched.FirstFailAt()
	return failAt, failAt >= 0 && failAt < tr.Meta.Duration
}

// postFailureDecisionsPerSec measures settled admission throughput over the
// window from the first scripted crash to the end of the trace: the printed
// evidence that failure handling (eviction scans, health state reads, repair
// traffic) does not stall the admission path.
func postFailureDecisionsPerSec(tr *workload.Trace, rep *serve.Report, sched *faults.Schedule, compress float64) float64 {
	failAt, ok := postFailureWindow(tr, sched)
	if !ok {
		return 0
	}
	wall := (tr.Meta.Duration - failAt) / compress
	if wall <= 0 {
		return 0
	}
	n, _ := rep.Since(failAt)
	return float64(n) / wall
}

// offeredRate compares the dispatch rate the replay achieved against the
// rate the trace requested. bound reports a generator that fell more than 3%
// short — the threshold under which timer jitter is indistinguishable from
// genuine saturation.
func offeredRate(tr *workload.Trace, rep *serve.Report, compress float64) (requested, achieved float64, bound bool) {
	if tr.Meta.Duration > 0 {
		requested = float64(len(tr.Requests)) * compress / tr.Meta.Duration
	}
	achieved = rep.OfferedRate()
	bound = requested > 0 && achieved < 0.97*requested
	return requested, achieved, bound
}

// estimateThetaOf recovers the Zipf skew the catalog was built with by
// inverting the popularity curve (the generator wants θ, the problem stores
// popularities): p_i ∝ 1/i^θ ⇒ θ = log(p_1/p_2)/log 2.
func estimateThetaOf(p *core.Problem) float64 {
	pops := p.Catalog.Popularities()
	if len(pops) < 2 || pops[0] <= 0 || pops[1] <= 0 {
		return 0
	}
	theta := (math.Log(pops[0]) - math.Log(pops[1])) / math.Log(2)
	if theta < 0 {
		return 0
	}
	return theta
}

// printReport renders the replay outcome tables.
func printReport(tr *workload.Trace, rep *serve.Report, sched *faults.Schedule, compress float64) error {
	fmt.Printf("replayed %d requests (%.0fs of virtual time at %gx compression) in %.2fs wall\n",
		len(tr.Requests), tr.Meta.Duration, compress, rep.Wall.Seconds())
	t := report.NewTable("outcome", "count", "% of decisions")
	total := float64(rep.Requests)
	t.AddRowf("accepted", rep.Accepted, 100*float64(rep.Accepted)/total)
	t.AddRowf("rejected", rep.Rejected, 100*float64(rep.Rejected)/total)
	if rep.Draining > 0 {
		t.AddRowf("rejected (draining)", rep.Draining, 100*float64(rep.Draining)/total)
	}
	if rep.Redirected > 0 {
		t.AddRowf("redirected", rep.Redirected, 100*float64(rep.Redirected)/total)
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	lt := report.NewTable("admission latency", "ms")
	lt.AddRowf("p50", rep.LatencyQuantile(0.50).Seconds()*1e3)
	lt.AddRowf("p90", rep.LatencyQuantile(0.90).Seconds()*1e3)
	lt.AddRowf("p99", rep.LatencyQuantile(0.99).Seconds()*1e3)
	lt.AddRowf("max", rep.LatencyQuantile(1).Seconds()*1e3)
	if err := lt.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("throughput: %.0f admission decisions/sec\n", rep.DecisionsPerSec())
	if failAt, ok := postFailureWindow(tr, sched); ok {
		n, rej := rep.Since(failAt)
		pct := 0.0
		if n > 0 {
			pct = 100 * float64(rej) / float64(n)
		}
		fmt.Printf("post-failure window (t ≥ %gs): %d decisions, %.2f%% rejected, %.0f decisions/sec\n",
			failAt, n, pct, postFailureDecisionsPerSec(tr, rep, sched, compress))
	}
	return nil
}

// startInProcess boots a vodserved instance on a loopback port inside this
// process — the zero-dependency path the smoke target and quick experiments
// use. withRepair attaches and starts the re-replication repairer (at the
// simulator-parity defaults) so a scripted crash heals the same way a
// sim.Run with Resilience.Repair does. listeners > 0 fronts the daemon with
// the sharded ingress (that many accept loops) instead of the net/http mux.
func startInProcess(p *core.Problem, layout *core.Layout, policy string, compress float64, shards, listeners int, withRepair bool) (*serve.Server, func(), string, error) {
	srv, err := serve.New(p, layout, serve.Config{Policy: policy, Compress: compress, Shards: shards})
	if err != nil {
		return nil, nil, "", err
	}
	srv.AttachInjector(faults.NewInjector())
	if withRepair {
		rep, err := serve.NewRepairer(srv, serve.RepairConfig{})
		if err != nil {
			return nil, nil, "", err
		}
		rep.Start()
	}
	if listeners > 0 {
		ing, err := serve.NewIngress(srv, serve.IngressConfig{Listeners: listeners})
		if err != nil {
			return nil, nil, "", err
		}
		addr, err := ing.Start("127.0.0.1:0")
		if err != nil {
			return nil, nil, "", err
		}
		return srv, ing.Close, "http://" + addr.String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() { _ = hs.Close() }
	return srv, stop, "http://" + ln.Addr().String(), nil
}

// scrapeAccepted parses vod_requests_total{outcome="accepted"} out of the
// daemon's Prometheus exposition.
func scrapeAccepted(client *serve.Client) (int64, error) {
	text, err := client.Metrics(context.Background())
	if err != nil {
		return 0, fmt.Errorf("scraping /metrics: %w", err)
	}
	const key = `vod_requests_total{outcome="accepted"} `
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no accepted-requests counter")
}

// crossValidate replays the same trace through sim.Run and compares
// rejection rates: the serving layer must reproduce the simulator (and so
// the paper's Fig. 4 curve) within the tolerance. Under a fault schedule the
// simulator injects the same scripted crashes (Config.FailAt) with failover
// and repair enabled at the live daemon's defaults, and a second comparison
// covers only the decisions dispatched after the first crash — the window
// where failure handling, not steady-state admission, sets the rate.
func crossValidate(p *core.Problem, layout *core.Layout, policy string, tr *workload.Trace, rep *serve.Report, fsched *faults.Schedule, seed int64, tolPts float64) error {
	newSched, err := simSchedulerFor(policy, p.BackboneBandwidth > 0)
	if err != nil {
		return err
	}
	cfg := sim.Config{
		Problem:      p,
		Layout:       layout,
		NewScheduler: newSched,
		Trace:        tr,
		Duration:     tr.Meta.Duration,
		Seed:         seed,
	}
	if fsched != nil {
		cfg.FailAt = fsched.FailAt()
		// Failover is always on in the live engine; repair matches the
		// selftest daemon's RepairConfig defaults (shared with the sim).
		cfg.Resilience = &resilience.Policy{Failover: true, Repair: true}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	livePct := 100 * rep.RejectionRate()
	simPct := 100 * res.RejectionRate
	delta := math.Abs(livePct - simPct)
	t := report.NewTable("side", "requests", "rejected %", "accepted")
	t.AddRowf("live daemon", rep.Requests, livePct, rep.Accepted)
	t.AddRowf("sim.Run", res.Requests, simPct, res.Accepted)
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("cross-validation: |live − sim| = %.2f points (tolerance %.2f)\n", delta, tolPts)
	if delta > tolPts {
		return fmt.Errorf("live rejection rate %.2f%% deviates from simulated %.2f%% by more than %.2f points", livePct, simPct, tolPts)
	}
	fmt.Printf("cross-validation OK: %.2f points of margin under the %.2f-point tolerance\n", tolPts-delta, tolPts)

	failAt, ok := postFailureWindow(tr, fsched)
	if !ok {
		return nil
	}
	// Post-failure window: sim.Run with Warmup counts only arrivals at or
	// after the boundary, exactly what Report.Since measures on the live side.
	pfCfg := cfg
	pfCfg.Warmup = failAt
	pfRes, err := sim.Run(pfCfg)
	if err != nil {
		return err
	}
	liveN, liveRej := rep.Since(failAt)
	if liveN == 0 {
		return fmt.Errorf("no live decisions dispatched after the first crash at t=%gs", failAt)
	}
	livePct = 100 * float64(liveRej) / float64(liveN)
	simPct = 100 * pfRes.RejectionRate
	delta = math.Abs(livePct - simPct)
	pt := report.NewTable("post-failure side", "requests", "rejected %")
	pt.AddRowf("live daemon", liveN, livePct)
	pt.AddRowf("sim.Run (warmup)", pfRes.Requests, simPct)
	if err := pt.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("post-failure cross-validation: |live − sim| = %.2f points (tolerance %.2f)\n", delta, tolPts)
	if delta > tolPts {
		return fmt.Errorf("post-failure live rejection rate %.2f%% deviates from simulated %.2f%% by more than %.2f points", livePct, simPct, tolPts)
	}
	fmt.Printf("post-failure cross-validation OK: %.2f points of margin under the %.2f-point tolerance\n", tolPts-delta, tolPts)
	return nil
}

// simSchedulerFor maps a serve policy name onto the simulator scheduler
// that makes the same decisions: lock-free names map to their bare
// cluster.Scheduler counterparts; sim: names follow the pipeline convention
// (redirect wrapping exactly when the problem defines backbone bandwidth).
func simSchedulerFor(policy string, backbone bool) (func() cluster.Scheduler, error) {
	if base, ok := strings.CutPrefix(policy, "sim:"); ok {
		return vodcluster.SchedulerFactory(base, backbone)
	}
	if policy == "" {
		policy = "least-loaded"
	}
	return vodcluster.SchedulerFactory(policy, false)
}

// loadLayout mirrors vodserved's layout resolution so both tools agree on
// what is being served.
func loadLayout(scenarioPath, planPath string) (*core.Problem, *core.Layout, error) {
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		plan, err := config.LoadPlan(f)
		if err != nil {
			return nil, nil, err
		}
		return plan.Layout()
	}
	s := config.Paper()
	if scenarioPath != "" {
		f, err := os.Open(scenarioPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if s, err = config.Load(f); err != nil {
			return nil, nil, err
		}
	}
	p, layout, _, err := vodcluster.Pipeline(s)
	return p, layout, err
}
