package main

import (
	"fmt"

	"vodcluster"
	"vodcluster/internal/anneal"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/exp"
	"vodcluster/internal/report"
	"vodcluster/internal/sim"
)

// figureSA runs the §4.3 scalable-bit-rate experiment, whose numeric results
// the paper omits for space: simulated annealing over the discrete rate set
// {2, 4, 6, 8} Mb/s on the paper's cluster, reporting the objective
// components before and after annealing and the cost trace.
func figureSA(cfg benchConfig) error {
	cfg.emit.Printf("\n=== §4.3: simulated annealing for scalable encoding bit rates ===\n")
	s := config.Paper()
	s.StorageGB = 50 // fixed storage: the annealer chooses rates vs replicas
	p, err := s.Problem()
	if err != nil {
		return err
	}
	bp := &anneal.BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
	init, err := bp.InitialSolution()
	if err != nil {
		return err
	}
	initEval := bp.Evaluate(init)

	opts := anneal.DefaultOptions()
	opts.Seed = cfg.seed
	// Delta evaluation made proposals ~80× cheaper (see DESIGN.md §11), so
	// the figure runs a 10×-denser schedule than the scratch path could
	// afford and still finishes faster than it used to.
	opts.PlateauSteps = 2000
	opts.MaxSteps = 0 // run the full cooling schedule (~360k proposals/chain)
	chains := 4
	if cfg.quick {
		opts.MaxSteps = 200_000
		chains = 1
	}
	// The -anneal-* flags override the figure's schedule.
	if cfg.annealSteps > 0 {
		opts.MaxSteps = cfg.annealSteps
	}
	if cfg.annealChains > 0 {
		chains = cfg.annealChains
	}
	if cfg.annealSeed >= 0 {
		opts.Seed = cfg.annealSeed
	}
	best, bestEval, err := bp.Optimize(opts, chains)
	if err != nil {
		return err
	}

	t := report.NewTable("state", "mean rate (Mb/s)", "degree", "imbalance L", "objective", "feasible")
	t.AddRowf("initial (lowest rate, RR)", initEval.MeanRateMbps, initEval.Degree, initEval.Imbalance, initEval.Objective, initEval.Feasible())
	t.AddRowf("annealed", bestEval.MeanRateMbps, bestEval.Degree, bestEval.Imbalance, bestEval.Objective, bestEval.Feasible())
	if err := cfg.emit.Table("sa-scalable-bitrate", t); err != nil {
		return err
	}
	cfg.emit.Printf("copies placed: %d → %d\n", init.TotalCopies(), best.TotalCopies())

	// Simulate the annealed layout end to end and compare with the
	// fixed-rate (4 Mb/s) pipeline on the same storage budget.
	layout, err := bp.Runtime(best)
	if err != nil {
		return err
	}
	saAgg, _, err := sim.RunMany(sim.Config{Problem: p, Layout: layout, Seed: cfg.seed}, cfg.runs)
	if err != nil {
		return err
	}
	fixedScenario := s
	fixedScenario.Replicator, fixedScenario.Placer = "zipf", "slf"
	fixedScenario.Degree = 1.8 // ~ what 50 GB/server holds at 4 Mb/s (18 replicas × 8 / 100 videos)
	fp, flayout, fsched, err := vodcluster.Pipeline(fixedScenario)
	if err != nil {
		return err
	}
	fixedAgg, _, err := sim.RunMany(sim.Config{Problem: fp, Layout: flayout, NewScheduler: fsched, Seed: cfg.seed}, cfg.runs)
	if err != nil {
		return err
	}
	t2 := report.NewTable("simulated layout", "rejected %", "delivered Mb/s", "degree")
	t2.AddRowf("fixed 4 Mb/s (zipf+slf)", 100*fixedAgg.RejectionRate.Mean(), fixedAgg.SessionRateMbps.Mean(), flayout.ReplicationDegree())
	t2.AddRowf("annealed scalable rates", 100*saAgg.RejectionRate.Mean(), saAgg.SessionRateMbps.Mean(), layout.ReplicationDegree())
	cfg.emit.Printf("\n")
	if err := cfg.emit.Table("sa-simulated", t2); err != nil {
		return err
	}
	cfg.emit.Printf("note the objective's shape: Eq. 1 averages quality per *video*, so the\n")
	cfg.emit.Printf("annealer buys high rates where they are bandwidth-cheap — cold titles —\n")
	cfg.emit.Printf("lifting the copy-average rate to %.2f Mb/s while the request-weighted\n", bestEval.MeanRateMbps)
	cfg.emit.Printf("delivered rate stays at %.2f Mb/s (fixed layout: %.2f) and hot titles\n",
		saAgg.SessionRateMbps.Mean(), fixedAgg.SessionRateMbps.Mean())
	cfg.emit.Printf("keep moderate rates. With fewer replicas to balance over (degree %.2f\n", layout.ReplicationDegree())
	cfg.emit.Printf("against %.2f), rejection moves from %.3f %% to %.3f %%. A per-request\n",
		flayout.ReplicationDegree(), 100*fixedAgg.RejectionRate.Mean(), 100*saAgg.RejectionRate.Mean())
	cfg.emit.Printf("quality weighting would shift rates toward the head instead.\n")

	// Convergence trace of a single chain for the chart.
	res, err := anneal.Minimize[*anneal.BitRateLayout](bp, init, opts)
	if err != nil {
		return err
	}
	xs := make([]float64, len(res.CostTrace))
	ys := make([]float64, len(res.CostTrace))
	for i, c := range res.CostTrace {
		xs[i] = float64(i)
		ys[i] = -c // cost = −objective
	}
	chart := &report.Chart{
		Title:  "SA convergence: objective vs cooling plateau",
		XLabel: "plateau", YLabel: "objective",
	}
	chart.Add(report.Series{Name: "objective", X: xs, Y: ys})
	return cfg.emit.Chart(chart)
}

// figureSensitivity reproduces the §5.2 sensitivity claim: varying the number
// of videos, servers, and the encoding bit rate does not change the relative
// merits of the algorithm combinations.
func figureSensitivity(cfg benchConfig) error {
	cfg.emit.Printf("\n=== §5.2: sensitivity of the algorithm ranking ===\n")
	type variant struct {
		name   string
		mutate func(*config.Scenario)
	}
	variants := []variant{
		{"paper defaults", func(*config.Scenario) {}},
		{"M=50 videos", func(s *config.Scenario) { s.Videos = 50 }},
		{"M=200 videos", func(s *config.Scenario) { s.Videos = 200 }},
		{"N=4 servers", func(s *config.Scenario) { s.Servers = 4; s.LambdaPerMin = 20 }},
		{"N=16 servers", func(s *config.Scenario) { s.Servers = 16; s.LambdaPerMin = 80 }},
		{"2 Mb/s encoding", func(s *config.Scenario) { s.BitRateMbps = 2; s.LambdaPerMin = 80 }},
		{"6 Mb/s encoding", func(s *config.Scenario) { s.BitRateMbps = 6; s.LambdaPerMin = 26.67 }},
		{"60-minute videos", func(s *config.Scenario) { s.DurationMin = 60; s.LambdaPerMin = 60 }},
	}
	if cfg.quick {
		variants = variants[:4]
	}
	t := report.NewTable("variant", "zipf+slf rej %", "class+rr rej %", "zipf+slf wins")
	for _, v := range variants {
		var lambda float64
		series := make([]exp.Series, 0, 2)
		for _, c := range []combo{zipfSLF, classRR} {
			s := c.scenario(config.Paper().Theta, 1.2)
			v.mutate(&s)
			ser, err := scenarioSeries(c.String(), s)
			if err != nil {
				return fmt.Errorf("sensitivity %q: %w", v.name, err)
			}
			lambda = s.LambdaPerMin
			series = append(series, ser)
		}
		grid, err := cfg.sweep([]float64{lambda}, series).Run()
		if err != nil {
			return err
		}
		rej0, rej1 := exp.RejectionPct(grid[0][0]), exp.RejectionPct(grid[1][0])
		t.AddRowf(v.name, rej0, rej1, rej0 <= rej1)
	}
	return cfg.emit.Table("sensitivity", t)
}

// figureRedirect quantifies the §6 complement: runtime request redirection
// over the internal backbone on top of the conservative placement.
func figureRedirect(cfg benchConfig) error {
	cfg.emit.Printf("\n=== §6: request redirection over the internal backbone ===\n")
	lambdas := cfg.lambdas()
	series := make([]exp.Series, 0, 2)
	for _, backbone := range []float64{0, 2} {
		s := config.Paper()
		s.Degree = 1.2
		s.BackboneGbps = backbone
		name := "static-rr"
		if backbone > 0 {
			name = fmt.Sprintf("static-rr + %g Gb/s backbone", backbone)
		}
		ser, err := scenarioSeries(name, s)
		if err != nil {
			return err
		}
		series = append(series, ser)
	}
	sw := cfg.sweep(lambdas, series)
	grid, err := sw.Run()
	if err != nil {
		return err
	}
	t := report.NewTable("λ (req/min)", "no redirect rej %", "redirect rej %", "redirected/run")
	for xi, lam := range lambdas {
		t.AddRowf(lam, exp.RejectionPct(grid[0][xi]), exp.RejectionPct(grid[1][xi]),
			grid[1][xi].Agg.Redirected.Mean())
	}
	if err := cfg.emit.Table("redirect", t); err != nil {
		return err
	}
	chart := sw.Chart(grid,
		"Request redirection: rejection rate (%) with and without backbone",
		"arrival rate (req/min)", "rejection rate (%)", exp.RejectionPct)
	return cfg.emit.Chart(chart)
}
