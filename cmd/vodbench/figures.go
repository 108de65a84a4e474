package main

import (
	"fmt"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/exp"
	"vodcluster/internal/sim"
)

// Reconstructed sweep parameters (the figure axes in the available paper text
// are OCR-damaged; EXPERIMENTS.md documents the reconstruction). The
// saturation arrival rate of the paper's cluster is 40 requests/minute.
var (
	lambdaSweep      = []float64{8, 16, 24, 28, 32, 36, 40, 44}
	lambdaSweepQuick = []float64{16, 32, 40}
	degreeSweep      = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	degreeSweepQuick = []float64{1.0, 1.4, 2.0}
	thetas           = []float64{0.75, 0.25}
)

const lambdaHeader = "λ (req/min)"

// combo names one replication+placement pairing.
type combo struct{ repl, plac string }

func (c combo) String() string { return c.repl + "+" + c.plac }

// scenario is the paper scenario at skew θ and replication degree, laid out
// by this pairing.
func (c combo) scenario(theta, degree float64) config.Scenario {
	s := config.Paper()
	s.Theta = theta
	s.Degree = degree
	s.Replicator, s.Placer = c.repl, c.plac
	return s
}

var (
	zipfSLF    = combo{"zipf", "slf"}
	classRR    = combo{"classification", "roundrobin"}
	fourCombos = []combo{zipfSLF, {"zipf", "roundrobin"}, {"classification", "slf"}, classRR}
)

// lambdas is the arrival-rate axis every λ figure sweeps.
func (cfg benchConfig) lambdas() []float64 {
	if cfg.quick {
		return lambdaSweepQuick
	}
	return lambdaSweep
}

// sweep builds an exp.Sweep over arrival rates with the bench's shared knobs.
func (cfg benchConfig) sweep(lambdas []float64, series []exp.Series) *exp.Sweep {
	return &exp.Sweep{
		Xs:      lambdas,
		Series:  series,
		Runs:    cfg.runs,
		Seed:    cfg.seed,
		Workers: cfg.workers,
	}
}

// scenarioSeries builds scenario s's layout once, for the peak rate, and
// sweeps it over the arrival rate: replication and placement decisions do
// not depend on λ, only the runtime load does.
func scenarioSeries(name string, s config.Scenario) (exp.Series, error) {
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		return exp.Series{}, fmt.Errorf("%s: %w", name, err)
	}
	return exp.ArrivalSeries(name, sim.Config{Problem: p, Layout: layout, NewScheduler: sched}), nil
}

// curve is one line of a λ panel: its legend name and the scenario it
// sweeps.
type curve struct {
	name string
	s    config.Scenario
}

// comboCurves is one curve per pairing at a fixed (θ, degree).
func comboCurves(theta, degree float64) []curve {
	out := make([]curve, 0, len(fourCombos))
	for _, c := range fourCombos {
		out = append(out, curve{c.String(), c.scenario(theta, degree)})
	}
	return out
}

// panel is one subplot of Figs. 4–6. Its heading reads "Fig. <n>(<label>)
// <desc>", its chart title inserts the figure's plotted quantity before
// desc, and its table lands as fig<n><label>-<csv>.
type panel struct {
	label, desc, csv string
	curves           []curve
	// headers are the table's value-column titles; nil means the curve
	// names.
	headers []string
}

// lambdaFigure is one of Figs. 4–6: panels of scenario curves swept over
// the arrival rate, all plotting one metric.
type lambdaFigure struct {
	num, title   string // "4"; the "=== ... ===" banner
	what, yLabel string // chart-title quantity and y-axis label
	metric       exp.Metric
	panels       []panel
}

func (f lambdaFigure) run(cfg benchConfig) error {
	cfg.emit.Printf("%s", f.title)
	for _, pn := range f.panels {
		fig := fmt.Sprintf("Fig. %s(%s)", f.num, pn.label)
		cfg.emit.Printf("\n--- %s %s ---\n", fig, pn.desc)
		series := make([]exp.Series, 0, len(pn.curves))
		for _, c := range pn.curves {
			ser, err := scenarioSeries(c.name, c.s)
			if err != nil {
				return err
			}
			series = append(series, ser)
		}
		s := cfg.sweep(cfg.lambdas(), series)
		grid, err := s.Run()
		if err != nil {
			return err
		}
		var headers []string
		if pn.headers != nil {
			headers = append([]string{lambdaHeader}, pn.headers...)
		}
		if err := cfg.emit.Table(fmt.Sprintf("fig%s%s-%s", f.num, pn.label, pn.csv), s.Table(grid, lambdaHeader, f.metric, headers)); err != nil {
			return err
		}
		chart := s.Chart(grid, fmt.Sprintf("%s %s — %s", fig, f.what, pn.desc), "arrival rate (req/min)", f.yLabel, f.metric)
		if err := cfg.emit.Chart(chart); err != nil {
			return err
		}
	}
	return nil
}

// figure4 reproduces Fig. 4: impact of the replication degree on rejection
// rate, for (a, c) Zipf replication + smallest-load-first placement and
// (b, d) classification replication + round-robin placement, at two skews.
func figure4(cfg benchConfig) error {
	degrees := degreeSweep
	if cfg.quick {
		degrees = degreeSweepQuick
	}
	f := lambdaFigure{
		num: "4", title: "=== Figure 4: rejection rate vs arrival rate, by replication degree ===\n",
		what: "rejection rate (%)", yLabel: "rejection rate (%)", metric: exp.RejectionPct,
	}
	for i, sub := range []struct {
		theta float64
		c     combo
	}{{thetas[0], zipfSLF}, {thetas[0], classRR}, {thetas[1], zipfSLF}, {thetas[1], classRR}} {
		pn := panel{
			label: string(rune('a' + i)),
			desc:  fmt.Sprintf("%s, θ=%.2f", sub.c, sub.theta),
			csv:   fmt.Sprintf("%s-theta%.2f", sub.c, sub.theta),
		}
		for _, deg := range degrees {
			pn.curves = append(pn.curves, curve{fmt.Sprintf("deg %.1f", deg), sub.c.scenario(sub.theta, deg)})
			pn.headers = append(pn.headers, fmt.Sprintf("deg %.1f (%%)", deg))
		}
		f.panels = append(f.panels, pn)
	}
	return f.run(cfg)
}

// figure5 reproduces Fig. 5: impact of the four algorithm combinations on
// rejection rate at replication degrees 1.2 and 2.0 and two skews.
func figure5(cfg benchConfig) error {
	f := lambdaFigure{
		num: "5", title: "\n=== Figure 5: rejection rate vs arrival rate, by algorithm combination ===\n",
		what: "rejection rate (%)", yLabel: "rejection rate (%)", metric: exp.RejectionPct,
	}
	for i, sub := range []struct{ theta, degree float64 }{
		{thetas[0], 1.2}, {thetas[0], 2.0}, {thetas[1], 1.2}, {thetas[1], 2.0},
	} {
		f.panels = append(f.panels, panel{
			label:  string(rune('a' + i)),
			desc:   fmt.Sprintf("degree %.1f, θ=%.2f", sub.degree, sub.theta),
			csv:    fmt.Sprintf("deg%.1f-theta%.2f", sub.degree, sub.theta),
			curves: comboCurves(sub.theta, sub.degree),
		})
	}
	return f.run(cfg)
}

// figure6 reproduces Fig. 6: the measured load imbalance degree L (%) versus
// arrival rate for the four combinations, at θ = 0.75 and degrees 1.2, 2.0.
// The plotted L is the capacity-normalized spread (max_j l_j − l̄)/B, the
// variant whose measured curve traces the paper's shape: rising at light
// load, peaking at mid arrival rates, and collapsing past saturation (see
// EXPERIMENTS.md for the discussion of the normalization choice).
func figure6(cfg benchConfig) error {
	f := lambdaFigure{
		num: "6", title: "\n=== Figure 6: load imbalance degree L(%) vs arrival rate ===\n",
		what: "load imbalance L (%)", yLabel: "L (%)", metric: exp.ImbalanceCapPct,
	}
	for i, degree := range []float64{1.2, 2.0} {
		f.panels = append(f.panels, panel{
			label:  string(rune('a' + i)),
			desc:   fmt.Sprintf("degree %.1f, θ=%.2f", degree, thetas[0]),
			csv:    fmt.Sprintf("deg%.1f", degree),
			curves: comboCurves(thetas[0], degree),
		})
	}
	return f.run(cfg)
}
