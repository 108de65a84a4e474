package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"vodcluster"
	"vodcluster/internal/anneal"
	"vodcluster/internal/apportion"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/exp"
	"vodcluster/internal/metrics"
	"vodcluster/internal/place"
	"vodcluster/internal/policy"
	"vodcluster/internal/replicate"
	"vodcluster/internal/sim"
	"vodcluster/internal/stats"
	"vodcluster/internal/workload"
	"vodcluster/internal/zipf"
)

// --- fig4_sweep ---

// The Fig. 4(a)+(b) grid: two algorithm pairs, six replication degrees and
// eight arrival rates at θ = 0.75. The figure uses 20 runs per point; one
// repetition here uses fig4Runs, so that a run of a dozen seconds holds
// some forty repetitions for its median (README.md, "Sizes").
var (
	fig4Lambdas = []float64{8, 16, 24, 28, 32, 36, 40, 44}
	fig4Degrees = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	fig4Pairs   = [][2]string{{"zipf", "slf"}, {"classification", "roundrobin"}}
)

const (
	fig4Theta = 0.75
	fig4Runs  = 1
	// fig4DigestSeed is the sweep seed of the stored digest.
	fig4DigestSeed = 42
	// pointSeedStride spaces the per-point base seeds as exp.Sweep does by
	// default; the benchmark sets it explicitly so its own per-run loop on
	// the traced pass replays exactly the runs the sweep makes.
	pointSeedStride = 1000003
)

//go:embed fig4_digest.json
var fig4DigestJSON []byte

// fig4Point is one grid cell of the digest.
type fig4Point struct {
	Series    string  `json:"series"`
	Lambda    float64 `json:"lambda_per_min"`
	Rejection float64 `json:"rejection_rate"`
	Events    int     `json:"events"`
}

// fig4Digest is every simulated statistic the check pins: a faster simulator
// must leave all of it identical.
type fig4Digest struct {
	Seed        int64       `json:"seed"`
	Runs        int         `json:"runs"`
	TotalEvents int         `json:"total_events"`
	Points      []fig4Point `json:"points"`
}

func digestOf(seed int64, series []exp.Series, grid [][]exp.Point) fig4Digest {
	d := fig4Digest{Seed: seed, Runs: fig4Runs}
	for si, row := range grid {
		for _, pt := range row {
			events := 0
			for _, r := range pt.Results {
				events += r.Events
			}
			d.TotalEvents += events
			d.Points = append(d.Points, fig4Point{series[si].Name, pt.X, pt.Agg.RejectionRate.Mean(), events})
		}
	}
	return d
}

// diff describes the first difference between two digests, or "" if none.
// Event counts compare exactly; rates to 1e-12, which is below anything but
// a last-bit difference in float summation.
func (d fig4Digest) diff(o fig4Digest) string {
	if d.Runs != o.Runs || len(d.Points) != len(o.Points) {
		return fmt.Sprintf("grid shape differs: %d runs × %d points, want %d × %d", d.Runs, len(d.Points), o.Runs, len(o.Points))
	}
	for i, p := range d.Points {
		q := o.Points[i]
		if p.Series != q.Series || p.Lambda != q.Lambda || p.Events != q.Events || math.Abs(p.Rejection-q.Rejection) > 1e-12 {
			return fmt.Sprintf("point %d differs: got %+v, want %+v", i, p, q)
		}
	}
	if d.TotalEvents != o.TotalEvents {
		return fmt.Sprintf("total events %d, want %d", d.TotalEvents, o.TotalEvents)
	}
	return ""
}

type fig4 struct {
	e      *env
	series []exp.Series
	first  *fig4Digest // the first repetition's digest; later ones must equal it
}

func fig4Series(k *track) ([]exp.Series, error) {
	var series []exp.Series
	for _, pair := range fig4Pairs {
		for _, deg := range fig4Degrees {
			s := config.Paper()
			s.Theta, s.Degree, s.Replicator, s.Placer = fig4Theta, deg, pair[0], pair[1]
			id := k.begin("vodcluster.pipeline")
			p, layout, sched, err := vodcluster.Pipeline(s)
			k.end(id)
			if err != nil {
				return nil, err
			}
			series = append(series, exp.Series{
				Name: fmt.Sprintf("%s+%s deg %.1f", pair[0], pair[1], deg),
				Config: func(lam float64) (sim.Config, error) {
					q := p.Clone()
					q.ArrivalRate = lam / core.Minute
					return sim.Config{Problem: q, Layout: layout, NewScheduler: sched}, nil
				},
			})
		}
	}
	return series, nil
}

func fig4Sweep(series []exp.Series, seed int64, workers int) *exp.Sweep {
	return &exp.Sweep{
		Xs: fig4Lambdas, Series: series, Runs: fig4Runs, Seed: seed, Workers: workers,
		PointSeed: func(i int) int64 { return seed + int64(i)*pointSeedStride },
	}
}

// setupFig4 builds the twelve series and, as the fixed warm-up, runs the grid
// once on the stored digest's seed and checks every simulated statistic
// against the digest.
func setupFig4(e *env) (instance, error) {
	series, err := fig4Series(e.main)
	if err != nil {
		return nil, err
	}
	var want fig4Digest
	if err := json.Unmarshal(fig4DigestJSON, &want); err != nil {
		return nil, fmt.Errorf("fig4_digest.json: %w", err)
	}
	grid, err := fig4Sweep(series, fig4DigestSeed, 1).Run()
	if err != nil {
		return nil, err
	}
	d := digestOf(fig4DigestSeed, series, grid)
	e.tally.check(d.diff(want) == "", "fig4_sweep: simulated statistics differ from benchmark/fig4_digest.json: %s", d.diff(want))
	return &fig4{e: e, series: series}, nil
}

func (w *fig4) rep(traced bool) (repResult, error) {
	var k *track
	if traced {
		k = w.e.main
	}
	start := time.Now()
	id := k.begin("exp.sweep")
	grid, err := fig4Sweep(w.series, w.e.seed, 1).Run()
	k.end(id)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	d := digestOf(w.e.seed, w.series, grid)
	w.e.tally.attempted.Add(int64(len(d.Points) * fig4Runs))
	if w.first == nil {
		w.first = &d
		for _, p := range d.Points {
			w.e.tally.check(p.Rejection >= 0 && p.Rejection < 1 && p.Events > 0, "fig4_sweep: implausible point %+v", p)
		}
	} else if diff := d.diff(*w.first); diff != "" {
		w.e.tally.fail("fig4_sweep: repetition differs from the first on the same inputs: %s", diff)
	}
	return repResult{ops: float64(d.TotalEvents), wall: wall}, nil
}

func (w *fig4) layers(budget time.Duration, out map[string]float64) error {
	k := w.e.main
	slice := budget / 16

	// The same grid, run by hand with a span per sim.Run and per aggregate:
	// the sweep's overhead is its wall time over the simulator's own time.
	sweepWall := medianSeconds(w.e.tr.stats(), "exp.sweep")
	loop := k.begin("bench.fig4_by_hand")
	for _, ser := range w.series {
		for xi, x := range fig4Lambdas {
			cfg, err := ser.Config(x)
			if err != nil {
				return err
			}
			base := stats.NewRNG(w.e.seed + int64(xi)*pointSeedStride)
			var results []metrics.Result
			for r := 0; r < fig4Runs; r++ {
				cfg.Seed = base.Derive(int64(r)).Seed()
				id := k.begin("sim.run")
				res, err := sim.Run(cfg)
				k.end(id)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
			id := k.begin("metrics.aggregate")
			agg := &metrics.Aggregate{}
			for _, r := range results {
				agg.Add(r)
			}
			k.end(id)
		}
	}
	k.end(loop)
	st := w.e.tr.stats()
	out["exp.sweep_overhead_ratio"] = ratio(sweepWall, st["sim.run"].Self.Seconds())
	out["metrics.aggregate_s"] = medianSeconds(st, "metrics.aggregate")

	// Sequential against two workers, alternating, twice each.
	var seq, par sample
	for i := 0; i < 2; i++ {
		for _, workers := range []int{1, 2} {
			start := time.Now()
			if _, err := fig4Sweep(w.series, w.e.seed, workers).Run(); err != nil {
				return err
			}
			if workers == 1 {
				seq = append(seq, time.Since(start).Seconds())
			} else {
				par = append(par, time.Since(start).Seconds())
			}
		}
	}
	out["exp.parallel_speedup"] = ratio(seq.median(), par.median())

	// One run at the paper's default point: degree 1.2, λ = 40/min.
	p, layout, sched, err := vodcluster.Pipeline(config.Paper())
	if err != nil {
		return err
	}
	var runS sample
	events := 0
	for i := 0; i < 15; i++ {
		start := time.Now()
		res, err := sim.Run(sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Seed: w.e.seed})
		if err != nil {
			return err
		}
		runS = append(runS, time.Since(start).Seconds())
		events = res.Events
	}
	out["sim.run_s"] = runS.median()
	out["sim.events"] = float64(events)
	out["sim.events_per_s"] = ratio(float64(events), runS.median())

	sampler := zipf.NewSampler(zipf.MustNew(p.M(), fig4Theta))
	rng := stats.NewRNG(w.e.seed)
	out["zipf.sample_ns"] = timeOp(slice, 100000, func() { sampler.Sample(rng) })

	gen, err := workload.NewGenerator(workload.Poisson{Lambda: p.ArrivalRate}, p.M(), fig4Theta)
	if err != nil {
		return err
	}
	requests := 0
	out["workload.generate_s"] = timeOp(slice, 10, func() { requests = len(gen.Generate(p.PeakPeriod, w.e.seed).Requests) }) / 1e9
	out["workload.requests"] = float64(requests)

	// Admit and release one stream on a half-full cluster, under the two
	// schedulers the figures and the daemon use.
	var admit sample
	for _, sched := range []cluster.Scheduler{cluster.StaticRoundRobin{}, cluster.LeastLoaded{}} {
		st, err := cluster.New(p, layout)
		if err != nil {
			return err
		}
		for i := 0; i < 1800; i++ {
			st.Admit(sampler.Sample(rng), sched)
		}
		admit = append(admit, timeOp(slice, 10000, func() {
			if id, ok := st.Admit(sampler.Sample(rng), sched); ok {
				_ = st.Release(id) // the id was just admitted
			}
		}))
	}
	out["cluster.admit_release_ns"] = (admit[0] + admit[1]) / 2

	factory, err := policy.SchedulerFactory("static-rr", false)
	if err != nil {
		return err
	}
	out["policy.factory_ns"] = timeOp(slice, 100000, func() { factory() })
	return nil
}

func (w *fig4) finish(map[string]float64) error { return nil }
func (w *fig4) close()                          {}

// --- plan_paper and plan_scale ---

// rateSet is the paper's example rate set for MPEG-2 material (§4.3).
var rateSet = []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps}

// The annealer's default schedule cools through annealPlateaus temperatures;
// the plateau length is set so the requested proposals use all of them.
const annealPlateaus = 180

const (
	planPaperSteps = 500_000
	planScaleSteps = 1_000
)

type plan struct {
	e        *env
	scenario config.Scenario // plan_paper: what Pipeline materialises
	p        *core.Problem   // plan_scale: the fixed-rate problem replicated and placed
	bp       *anneal.BitRateProblem
	opts     anneal.Options
	first    float64 // the first repetition's best cost
	have     bool
	obj      float64
}

func annealOptions(steps int, seed int64) anneal.Options {
	o := anneal.DefaultOptions()
	o.PlateauSteps = (steps + annealPlateaus - 1) / annealPlateaus
	o.MaxSteps = steps
	o.Seed = seed
	return o
}

// setupPlanPaper prepares the §4.3 instance: the paper cluster at 50 GB per
// server. The fixed warm-up is one repetition.
func setupPlanPaper(e *env) (instance, error) {
	s := config.Paper()
	s.StorageGB = 50
	p, err := s.Problem()
	if err != nil {
		return nil, err
	}
	w := &plan{
		e: e, scenario: config.Paper(),
		bp:   &anneal.BitRateProblem{P: p, RateSet: rateSet},
		opts: annealOptions(planPaperSteps, e.seed),
	}
	_, err = w.rep(false)
	return w, err
}

// setupPlanScale prepares the same planner at M = 20000, N = 64, and for the
// annealer storage scaled with the catalog (the paper instance's 50 GB ×
// M/100 ÷ N/8). The arrival rate is three quarters of the cluster's
// saturation rate of 320 a minute: at the full rate the annealer's
// round-robin initial solution overloads server 0, which holds the hottest
// title of every stripe, and the returned plan is feasible only after tens of
// thousands of proposals.
func setupPlanScale(e *env) (instance, error) {
	s := config.Paper()
	s.Videos, s.Servers, s.LambdaPerMin = 20000, 64, 240
	p, err := s.Problem()
	if err != nil {
		return nil, err
	}
	s.StorageGB = 1250
	pa, err := s.Problem()
	if err != nil {
		return nil, err
	}
	w := &plan{
		e: e, p: p,
		bp:   &anneal.BitRateProblem{P: pa, RateSet: rateSet},
		opts: annealOptions(planScaleSteps, e.seed),
	}
	_, err = w.rep(false)
	return w, err
}

func (w *plan) rep(traced bool) (repResult, error) {
	var k *track
	if traced {
		k = w.e.main
	}
	t := w.e.tally
	start := time.Now()
	if w.p == nil {
		id := k.begin("vodcluster.pipeline")
		_, _, _, err := vodcluster.Pipeline(w.scenario) // validates the layout it returns
		k.end(id)
		t.check(err == nil, "plan_paper: pipeline: %v", err)
	} else if err := w.layout(k); err != nil {
		return repResult{}, err
	}
	id := k.begin("anneal.initial")
	init, err := w.bp.InitialSolution()
	k.end(id)
	if err != nil {
		return repResult{}, err
	}
	id = k.begin("anneal.minimize")
	res, err := anneal.Minimize[*anneal.BitRateLayout](w.bp, init, w.opts)
	k.end(id)
	if err != nil {
		return repResult{}, err
	}
	id = k.begin("anneal.evaluate")
	ev := w.bp.Evaluate(res.Best)
	k.end(id)
	wall := time.Since(start)

	t.check(res.Steps == w.opts.MaxSteps, "plan: annealer made %d proposals, asked for %d", res.Steps, w.opts.MaxSteps)
	t.check(ev.Feasible(), "plan: returned plan violates Eq. 4-7: %+v", ev)
	if !w.have {
		w.first, w.have = res.BestCost, true
		w.obj = ev.Objective
	} else {
		t.check(res.BestCost == w.first, "plan: best cost %v differs from the first repetition's %v on the same seed", res.BestCost, w.first)
	}
	k.note("anneal.accepted", float64(res.Accepted))
	k.note("anneal.steps", float64(res.Steps))
	return repResult{ops: float64(res.Steps), wall: wall}, nil
}

// layout runs the fixed-rate half of plan_scale: three replication
// algorithms, the divisor method beneath bounded Adams on its own,
// smallest-load-first placement and validation.
func (w *plan) layout(k *track) error {
	t := w.e.tally
	budget, err := w.p.TargetTotalReplicas(1.2)
	if err != nil {
		return err
	}
	var replicas []int
	for _, r := range []replicate.Replicator{replicate.BoundedAdams{}, replicate.Classification{}, replicate.ZipfInterval{}} {
		id := k.begin("replicate." + r.Name())
		replicas, err = r.Replicate(w.p, budget)
		k.end(id)
		if err != nil {
			return err
		}
	}
	id := k.begin("apportion.divisor")
	_, err = apportion.BoundedDivisor(w.p.Catalog.Popularities(), budget, apportion.Adams, nil)
	k.end(id)
	if err != nil {
		return err
	}
	id = k.begin("place.slf")
	layout, err := place.SmallestLoadFirst{}.Place(w.p, replicas)
	k.end(id)
	if err != nil {
		return err
	}
	id = k.begin("core.validate")
	err = layout.Validate(w.p)
	k.end(id)
	t.check(err == nil, "plan_scale: layout invalid: %v", err)
	return nil
}

func (w *plan) layers(time.Duration, map[string]float64) error { return nil }

func (w *plan) finish(out map[string]float64) error {
	out["bench.plan_objective"] = w.obj
	if st := w.e.tr.stats()["anneal.minimize"]; st != nil {
		steps := w.e.tr.count("anneal.steps")
		out["anneal.proposals_per_s"] = ratio(steps, st.Total.Seconds())
		out["anneal.accept_ratio"] = ratio(w.e.tr.count("anneal.accepted"), steps)
	}
	return nil
}

func (w *plan) close() {}
