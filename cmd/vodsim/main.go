// Command vodsim runs one simulated peak period of a VoD cluster under a
// chosen replication/placement/scheduling combination and prints the
// measured rejection rate, load imbalance, and utilization, aggregated over
// replicated runs with 95% confidence intervals.
//
// The scenario comes either from flags (paper defaults) or a JSON file:
//
//	vodsim -lambda 40 -degree 1.2 -replicator zipf -placer slf -runs 20
//	vodsim -scenario scenario.json
//
// With -sweep, vodsim evaluates the same configuration across several
// arrival rates on the experiment harness (internal/exp), running the whole
// grid in parallel:
//
//	vodsim -sweep 8,16,24,32,40 -degree 1.2 -runs 20
//
// -series plots one curve per named scheduling policy over the same layout
// and common random numbers:
//
//	vodsim -sweep 8,16,24,32,40 -series static-rr,least-loaded
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vodcluster"
	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/dynrep"
	"vodcluster/internal/exp"
	"vodcluster/internal/obs"
	"vodcluster/internal/policy"
	"vodcluster/internal/report"
	"vodcluster/internal/resilience"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vodsim:", err)
		os.Exit(1)
	}
}

func run() error {
	s := config.Paper()
	scenarioPath := flag.String("scenario", "", "JSON scenario file (flags override nothing when set)")
	planPath := flag.String("plan", "", "replay a plan written by vodplace -out instead of recomputing the layout")
	flag.IntVar(&s.Servers, "servers", s.Servers, "number of servers N")
	flag.IntVar(&s.Videos, "videos", s.Videos, "number of videos M")
	flag.Float64Var(&s.Theta, "theta", s.Theta, "Zipf popularity skew θ")
	flag.Float64Var(&s.BitRateMbps, "bitrate", s.BitRateMbps, "encoding bit rate (Mb/s)")
	flag.Float64Var(&s.DurationMin, "duration", s.DurationMin, "video duration (minutes)")
	flag.Float64Var(&s.BandwidthGbps, "bandwidth", s.BandwidthGbps, "outgoing bandwidth per server (Gb/s)")
	flag.Float64Var(&s.BackboneGbps, "backbone", s.BackboneGbps, "internal backbone bandwidth (Gb/s); >0 enables redirection")
	flag.Float64Var(&s.StorageGB, "storage", s.StorageGB, "storage per server (GB); 0 derives from degree")
	flag.Float64Var(&s.LambdaPerMin, "lambda", s.LambdaPerMin, "arrival rate (requests/minute)")
	flag.Float64Var(&s.Degree, "degree", s.Degree, "target replication degree")
	flag.StringVar(&s.Replicator, "replicator", s.Replicator, "replication algorithm: adams|zipf|classification|uniform")
	flag.StringVar(&s.Placer, "placer", s.Placer, "placement algorithm: slf|roundrobin|greedy|random|wslf|bsr")
	flag.StringVar(&s.Scheduler, "scheduler", s.Scheduler, "scheduling policy: "+strings.Join(policy.Names(), "|"))
	listPolicies := flag.Bool("list-policies", false, "print the scheduling-policy registry and exit")
	flag.IntVar(&s.Runs, "runs", s.Runs, "number of simulation replications")
	flag.Int64Var(&s.Seed, "seed", s.Seed, "master random seed")
	perRun := flag.Bool("per-run", false, "print every run's result, not just the aggregate")
	mtbfH := flag.Float64("mtbf", 0, "server mean time between failures (hours); 0 disables failure injection")
	mttrMin := flag.Float64("mttr", 30, "server mean time to repair (minutes), used with -mtbf")
	streamLimit := flag.Int("stream-limit", 0, "max concurrent streams per server (disk bound); 0 = network only")
	dynamic := flag.Bool("dynamic", false, "enable runtime dynamic replication (needs -backbone > 0)")
	allResilience := flag.Bool("resilience", false, "enable every recovery mechanism (failover, retry, degrade, repair)")
	failover := flag.Bool("failover", false, "re-admit streams torn down by failures onto surviving replicas")
	retry := flag.Bool("retry", false, "queue rejected requests for retry with exponential backoff")
	retryPatience := flag.Float64("retry-patience", 0, "seconds a queued request keeps retrying before reneging; 0 = default (120)")
	degrade := flag.Bool("degrade", false, "serve a lower-rate copy when full-rate admission fails")
	degradeFloor := flag.Float64("degrade-floor", 0, "minimum fraction of nominal rate for degraded service/failover; 0 = default (0.5)")
	repair := flag.Bool("repair", false, "re-replicate under-replicated videos onto the least-loaded up server")
	repairMinLive := flag.Int("repair-min-live", 0, "live-replica threshold that triggers a repair copy; 0 = default (2)")
	sweepList := flag.String("sweep", "", "comma-separated arrival rates (req/min) to sweep instead of the single -lambda run; every other knob still applies")
	seriesList := flag.String("series", "", fmt.Sprintf("comma-separated named series for -sweep, each a scheduling policy curve over the same layout; available: %s (default: baseline)", strings.Join(sweepSeriesNames(), ", ")))
	workers := flag.Int("workers", 0, "parallel simulations across a -sweep; 0 = GOMAXPROCS, 1 = sequential")
	driftAt := flag.Float64("drift-at", 0, "re-rank the popularity curve at this virtual time (seconds); 0 disables; materializes the workload as a trace")
	driftRotate := flag.Int("drift-rotate", 0, "drift rank-rotation distance; 0 means half the catalog")
	driftShuffle := flag.Bool("drift-shuffle", false, "drift with a seeded random permutation instead of a rotation")
	driftSeed := flag.Int64("drift-seed", 1, "seed of the -drift-shuffle permutation")
	tracePath := flag.String("trace", "", "dump a session-lifecycle trace of the run(s) to this file (ring buffer of -trace-events)")
	traceFormat := flag.String("trace-format", "json", "trace dump format: json | chrome (chrome://tracing / Perfetto)")
	traceEvents := flag.Int("trace-events", obs.DefaultTraceEvents, "trace ring-buffer capacity (oldest events are overwritten)")
	flag.Parse()

	if *listPolicies {
		fmt.Print("Scheduling policies (shared registry, internal/policy):\n\n", policy.List())
		return nil
	}

	if *scenarioPath != "" {
		f, err := os.Open(*scenarioPath)
		if err != nil {
			return err
		}
		defer f.Close()
		s, err = config.Load(f)
		if err != nil {
			return err
		}
	}

	var (
		p      *core.Problem
		layout *core.Layout
		sched  func() cluster.Scheduler
	)
	if *planPath != "" {
		f, err := os.Open(*planPath)
		if err != nil {
			return err
		}
		plan, err := config.LoadPlan(f)
		f.Close()
		if err != nil {
			return err
		}
		runs, seed := s.Runs, s.Seed // keep the command-line knobs
		s = plan.Scenario
		s.Runs, s.Seed = runs, seed
		if p, layout, err = plan.Layout(); err != nil {
			return err
		}
		if sched, err = vodcluster.SchedulerFactory(s.Scheduler, p.BackboneBandwidth > 0); err != nil {
			return err
		}
	} else {
		var err error
		if p, layout, sched, err = vodcluster.Pipeline(s); err != nil {
			return err
		}
	}
	cfg := sim.Config{
		Problem:      p,
		Layout:       layout,
		NewScheduler: sched,
		Seed:         s.Seed,
		StreamLimit:  *streamLimit,
	}
	if *mtbfH > 0 {
		cfg.Failures = &avail.FailureModel{MTBF: *mtbfH * core.Hour, MTTR: *mttrMin * core.Minute}
	}
	pol := resilience.Policy{
		Failover:      *allResilience || *failover,
		Retry:         *allResilience || *retry,
		Degrade:       *allResilience || *degrade,
		Repair:        *allResilience || *repair,
		RetryPatience: *retryPatience,
		DegradeFloor:  *degradeFloor,
		RepairMinLive: *repairMinLive,
	}
	if pol.Enabled() {
		cfg.Resilience = &pol
	}
	if *dynamic {
		if p.BackboneBandwidth <= 0 {
			return fmt.Errorf("-dynamic needs -backbone > 0 for replica migrations")
		}
		newManager, err := dynrep.NewFactory(p, dynrep.Options{})
		if err != nil {
			return err
		}
		cfg.NewController = func() sim.Controller { return newManager() }
	}
	drift := workload.Drift{At: *driftAt, Rotate: *driftRotate, Shuffle: *driftShuffle, Seed: *driftSeed}
	if drift.Enabled() {
		if *sweepList != "" {
			return fmt.Errorf("-drift-at materializes a fixed trace and cannot combine with -sweep")
		}
		// A drift shock needs a concrete request sequence to rewrite, so the
		// scenario's arrival process is materialized once (every replication
		// replays the same drifted trace; the seed still drives scheduling).
		gen, err := workload.NewGenerator(workload.Poisson{Lambda: p.ArrivalRate}, p.M(), s.Theta)
		if err != nil {
			return err
		}
		tr := gen.Generate(p.PeakPeriod, s.Seed)
		if tr, err = drift.Apply(tr); err != nil {
			return err
		}
		cfg.Trace = tr
		cfg.Duration = tr.Meta.Duration
		fmt.Printf("drift: popularity re-ranked at t=%gs over a %d-request trace (shuffle=%v)\n",
			drift.At, len(tr.Requests), drift.Shuffle)
	}
	// Session tracing: one shared ring buffer across every replication. The
	// tracer publishes with atomics, so sharing it between parallel runs is
	// safe; events from different replications interleave in the dump (each
	// run restarts virtual time at 0).
	var tracer *obs.Tracer
	if *tracePath != "" {
		if *traceFormat != "json" && *traceFormat != "chrome" {
			return fmt.Errorf("-trace-format must be json or chrome, got %q", *traceFormat)
		}
		tracer = obs.NewTracer(*traceEvents)
		cfg.Hooks = append(cfg.Hooks, obs.NewSimHook(tracer))
	}
	dumpTrace := func() error {
		if tracer == nil {
			return nil
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if *traceFormat == "chrome" {
			err = tracer.WriteChromeTrace(f)
		} else {
			err = tracer.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "vodsim: trace (%d of %d events) written to %s\n",
				min(tracer.Total(), uint64(tracer.Cap())), tracer.Total(), *tracePath)
		}
		return err
	}
	if *sweepList != "" {
		if err := runSweep(s, cfg, *sweepList, *seriesList, *workers); err != nil {
			return err
		}
		return dumpTrace()
	}
	if *seriesList != "" {
		return fmt.Errorf("-series only applies to a -sweep")
	}
	agg, runs, err := sim.RunMany(cfg, s.Runs)
	if err != nil {
		return err
	}

	fmt.Printf("%s + %s + %s, degree %.2f, λ=%.3g req/min, θ=%.3g, %d runs\n",
		s.Replicator, s.Placer, s.Scheduler, layout.ReplicationDegree(), s.LambdaPerMin, s.Theta, s.Runs)
	t := report.NewTable("metric", "mean", "95% CI", "min", "max")
	t.AddRowf("rejection rate (%)", 100*agg.RejectionRate.Mean(), 100*agg.RejectionRate.CI95(),
		100*agg.RejectionRate.Min(), 100*agg.RejectionRate.Max())
	t.AddRowf("load imbalance L (Eq.2)", agg.ImbalanceAvg.Mean(), agg.ImbalanceAvg.CI95(),
		agg.ImbalanceAvg.Min(), agg.ImbalanceAvg.Max())
	t.AddRowf("peak imbalance", agg.ImbalancePeak.Mean(), agg.ImbalancePeak.CI95(),
		agg.ImbalancePeak.Min(), agg.ImbalancePeak.Max())
	t.AddRowf("mean utilization", agg.MeanUtilization.Mean(), agg.MeanUtilization.CI95(),
		agg.MeanUtilization.Min(), agg.MeanUtilization.Max())
	if agg.Redirected.Max() > 0 {
		t.AddRowf("redirected requests", agg.Redirected.Mean(), agg.Redirected.CI95(),
			agg.Redirected.Min(), agg.Redirected.Max())
	}
	if agg.Dropped.Max() > 0 || agg.Reneged.Max() > 0 {
		t.AddRowf("dropped streams", agg.Dropped.Mean(), agg.Dropped.CI95(),
			agg.Dropped.Min(), agg.Dropped.Max())
		t.AddRowf("failure rate (%)", 100*agg.FailureRate.Mean(), 100*agg.FailureRate.CI95(),
			100*agg.FailureRate.Min(), 100*agg.FailureRate.Max())
	}
	if agg.FailedOver.Max() > 0 {
		t.AddRowf("failed-over streams", agg.FailedOver.Mean(), agg.FailedOver.CI95(),
			agg.FailedOver.Min(), agg.FailedOver.Max())
	}
	if agg.Reneged.Max() > 0 {
		t.AddRowf("reneged retries", agg.Reneged.Mean(), agg.Reneged.CI95(),
			agg.Reneged.Min(), agg.Reneged.Max())
	}
	if agg.Degraded.Max() > 0 {
		t.AddRowf("degraded sessions", agg.Degraded.Mean(), agg.Degraded.CI95(),
			agg.Degraded.Min(), agg.Degraded.Max())
		t.AddRowf("degradation ratio", agg.DegradationRatio.Mean(), agg.DegradationRatio.CI95(),
			agg.DegradationRatio.Min(), agg.DegradationRatio.Max())
	}
	if agg.ReReplications.Max() > 0 {
		t.AddRowf("repair copies", agg.ReReplications.Mean(), agg.ReReplications.CI95(),
			agg.ReReplications.Min(), agg.ReReplications.Max())
	}
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}

	if *perRun {
		fmt.Println()
		for i, r := range runs {
			fmt.Printf("run %2d: %s\n", i, r)
		}
	}
	return dumpTrace()
}

// sweepSeriesNames lists the named -series curves a sweep can plot: the
// "baseline" pseudo-series, every policy from the shared registry, then the
// "redirect" pseudo-series.
func sweepSeriesNames() []string {
	names := []string{"baseline"}
	names = append(names, policy.Names()...)
	return append(names, "redirect")
}

// sweepSchedulerFor resolves one -series name to its scheduler factory.
// "baseline" is the scenario's own policy (with redirection exactly when the
// cluster has a backbone); a bare registry policy name forces that scheduler
// without redirection; "redirect" wraps the scenario's policy with backbone
// redirection regardless.
func sweepSchedulerFor(name string, s config.Scenario, backbone bool) (func() cluster.Scheduler, error) {
	switch name {
	case "baseline":
		return vodcluster.SchedulerFactory(s.Scheduler, backbone)
	case "redirect":
		if !backbone {
			return nil, fmt.Errorf("-series redirect needs -backbone > 0")
		}
		return vodcluster.SchedulerFactory(s.Scheduler, true)
	}
	f, err := policy.SchedulerFactory(name, false)
	if err != nil {
		return nil, fmt.Errorf("unknown sweep series %q (available: %s)", name, strings.Join(sweepSeriesNames(), ", "))
	}
	return f, nil
}

// runSweep evaluates the assembled configuration across several arrival
// rates on the experiment harness — the whole grid runs in parallel, and
// results are identical for every -workers value at the same seed. With
// -series, one curve per named scheduling policy is swept over the same
// layout and common random numbers, so the curves are directly comparable.
func runSweep(s config.Scenario, cfg sim.Config, list, seriesList string, workers int) error {
	lambdas, err := parseLambdas(list)
	if err != nil {
		return err
	}
	names := []string{"baseline"}
	if seriesList != "" {
		names = names[:0]
		for _, part := range strings.Split(seriesList, ",") {
			names = append(names, strings.TrimSpace(part))
		}
	}
	series := make([]exp.Series, 0, len(names))
	for _, name := range names {
		sched, err := sweepSchedulerFor(name, s, cfg.Problem.BackboneBandwidth > 0)
		if err != nil {
			return err
		}
		base := cfg
		base.NewScheduler = sched
		series = append(series, exp.ArrivalSeries(name, base))
	}
	sw := &exp.Sweep{
		Xs:      lambdas,
		Series:  series,
		Runs:    s.Runs,
		Seed:    s.Seed,
		Workers: workers,
	}
	grid, err := sw.Run()
	if err != nil {
		return err
	}
	fmt.Printf("%s + %s + %s, λ sweep {%s} req/min, θ=%.3g, %d runs/point\n",
		s.Replicator, s.Placer, s.Scheduler, list, s.Theta, s.Runs)
	t := report.NewTable("series", "λ (req/min)", "rejected %", "± 95% CI", "imbalance L (Eq.2)", "mean utilization", "failure rate %")
	for i, pts := range grid {
		for _, pt := range pts {
			t.AddRowf(names[i], pt.X,
				100*pt.Agg.RejectionRate.Mean(), 100*pt.Agg.RejectionRate.CI95(),
				pt.Agg.ImbalanceAvg.Mean(), pt.Agg.MeanUtilization.Mean(),
				100*pt.Agg.FailureRate.Mean())
		}
	}
	return t.Fprint(os.Stdout)
}

// parseLambdas parses the -sweep list: comma-separated positive rates.
func parseLambdas(list string) ([]float64, error) {
	parts := strings.Split(list, ",")
	lambdas := make([]float64, 0, len(parts))
	for _, part := range parts {
		lam, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-sweep: bad arrival rate %q: %v", part, err)
		}
		if lam <= 0 {
			return nil, fmt.Errorf("-sweep: arrival rate must be positive, got %g", lam)
		}
		lambdas = append(lambdas, lam)
	}
	return lambdas, nil
}
