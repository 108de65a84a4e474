package exp

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/resilience"
	"vodcluster/internal/sim"
)

// buildScenario returns a scaled-down paper cluster with a Zipf+SLF layout,
// mirroring the sim package's test fixture.
func buildScenario(t testing.TB, lambdaPerMin, degree float64) (*core.Problem, *core.Layout) {
	t.Helper()
	c, err := core.NewCatalog(50, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	capPer := int(math.Ceil(degree * 50 / 4))
	p := &core.Problem{
		Catalog:            c,
		NumServers:         4,
		StoragePerServer:   float64(capPer) * c[0].SizeBytes(),
		BandwidthPerServer: 0.9 * core.Gbps,
		ArrivalRate:        lambdaPerMin / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	budget, err := p.TargetTotalReplicas(degree)
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := replicate.ZipfInterval{}.Replicate(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return p, layout
}

// testSweep is a small two-series sweep over arrival rate, loaded enough
// that at least one point rejects (so metrics differ across cells).
func testSweep(t testing.TB, workers int) *Sweep {
	t.Helper()
	mkSeries := func(name string, degree float64) Series {
		return Series{
			Name: name,
			Config: func(x float64) (sim.Config, error) {
				p, layout := buildScenario(t, x, degree)
				return sim.Config{Problem: p, Layout: layout}, nil
			},
		}
	}
	return &Sweep{
		Xs:      []float64{8, 40},
		Series:  []Series{mkSeries("deg 1.0", 1.0), mkSeries("deg 1.4", 1.4)},
		Runs:    3,
		Seed:    42,
		Workers: workers,
	}
}

// TestSweepDeterministicAcrossWorkers pins the harness's core guarantee: the
// result grid depends only on (Series, Xs, Runs, Seed), never on Workers.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	seq, err := testSweep(t, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := testSweep(t, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel sweep diverged from sequential sweep at the same seed")
	}
}

// TestSweepMatchesRunMany pins seed compatibility with the sequential loops
// the harness replaced: each point's replications must equal sim.RunMany of
// the same config at the point's base seed, element for element.
func TestSweepMatchesRunMany(t *testing.T) {
	s := testSweep(t, 0)
	grid, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for si, ser := range s.Series {
		for xi, x := range s.Xs {
			cfg, err := ser.Config(x)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = grid[si][xi].Seed
			agg, results, err := sim.RunMany(cfg, s.Runs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results, grid[si][xi].Results) {
				t.Fatalf("series %q x=%g: per-run results diverge from sim.RunMany", ser.Name, x)
			}
			if !reflect.DeepEqual(agg, grid[si][xi].Agg) {
				t.Fatalf("series %q x=%g: aggregate diverges from sim.RunMany", ser.Name, x)
			}
		}
	}
}

// TestSweepDefaultPointSeeds pins the historical per-point seed convention
// (seed + i*1000003) and the PointSeed override.
func TestSweepDefaultPointSeeds(t *testing.T) {
	s := testSweep(t, 1)
	grid, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for xi := range s.Xs {
		want := s.Seed + int64(xi)*pointSeedStride
		for si := range s.Series {
			if got := grid[si][xi].Seed; got != want {
				t.Fatalf("series %d x-index %d: seed %d, want %d", si, xi, got, want)
			}
		}
	}

	s = testSweep(t, 1)
	s.PointSeed = func(int) int64 { return 7 }
	grid, err = s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for si := range grid {
		for xi := range grid[si] {
			if grid[si][xi].Seed != 7 {
				t.Fatalf("PointSeed override ignored at [%d][%d]", si, xi)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	ok := Series{Name: "ok", Config: func(float64) (sim.Config, error) {
		return sim.Config{}, nil
	}}
	cases := []struct {
		name string
		s    Sweep
	}{
		{"no points", Sweep{Series: []Series{ok}, Runs: 1}},
		{"no series", Sweep{Xs: []float64{1}, Runs: 1}},
		{"no runs", Sweep{Xs: []float64{1}, Series: []Series{ok}}},
		{"nil config", Sweep{Xs: []float64{1}, Series: []Series{{Name: "bad"}}, Runs: 1}},
	}
	for _, tc := range cases {
		if _, err := tc.s.Run(); err == nil {
			t.Errorf("%s: error expected", tc.name)
		}
	}
}

// TestSweepConfigErrorStopsBeforeSimulation verifies construction errors
// surface with series/x context and prevent any simulation from starting.
func TestSweepConfigErrorStopsBeforeSimulation(t *testing.T) {
	ran := false
	s := &Sweep{
		Xs:   []float64{1, 2},
		Runs: 1,
		Series: []Series{
			{Name: "first", Config: func(x float64) (sim.Config, error) {
				ran = true
				return sim.Config{}, nil
			}},
			{Name: "broken", Config: func(x float64) (sim.Config, error) {
				return sim.Config{}, os.ErrInvalid
			}},
		},
	}
	_, err := s.Run()
	if err == nil {
		t.Fatal("construction error swallowed")
	}
	if !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), "x=1") {
		t.Fatalf("error lacks series/x context: %v", err)
	}
	if !ran {
		t.Fatal("earlier series' Config never ran")
	}
}

// TestSweepRunErrorHasContext verifies a failing simulation reports which
// cell failed. An invalid sim.Config (no Problem/Layout) fails inside Run.
func TestSweepRunErrorHasContext(t *testing.T) {
	s := &Sweep{
		Xs:   []float64{3},
		Runs: 2,
		Series: []Series{{Name: "empty", Config: func(float64) (sim.Config, error) {
			return sim.Config{}, nil
		}}},
	}
	_, err := s.Run()
	if err == nil {
		t.Fatal("invalid config simulated successfully")
	}
	if !strings.Contains(err.Error(), `"empty"`) || !strings.Contains(err.Error(), "x=3") {
		t.Fatalf("error lacks series/x context: %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RunError: %v", err)
	}
	if re.Series != "empty" || re.X != 3 || re.Rep != 0 || re.Err == nil {
		t.Fatalf("RunError fields wrong: %+v", re)
	}
}

func TestSweepTableAndChart(t *testing.T) {
	s := testSweep(t, 0)
	grid, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	tbl := s.Table(grid, "λ (req/min)", RejectionPct, nil)
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"λ (req/min)", "deg 1.0", "deg 1.4", "8", "40"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}

	tbl = s.Table(grid, "", RejectionPct, []string{"x", "a (%)", "b (%)"})
	buf.Reset()
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a (%)") {
		t.Fatalf("custom headers ignored:\n%s", buf.String())
	}

	c := s.Chart(grid, "rejection", "λ", "%", RejectionPct)
	buf.Reset()
	if err := c.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rejection") {
		t.Fatalf("chart output missing title:\n%s", buf.String())
	}
}

func TestEmitterWritesCSV(t *testing.T) {
	s := testSweep(t, 0)
	grid, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	e := &Emitter{Out: &buf, CSVDir: filepath.Join(dir, "nested")}
	if err := e.Table("fig_test", s.Table(grid, "λ (req/min)", RejectionPct, nil)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing printed to Out")
	}
	csv, err := os.ReadFile(filepath.Join(dir, "nested", "fig_test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "deg 1.0") {
		t.Fatalf("CSV missing series column:\n%s", csv)
	}
}

// TestArrivalSeries pins the one λ-series constructor: each point runs the
// base configuration with a fresh problem at x/60 requests per second, and
// every other field of the base — what `vodsim -sweep` relies on when it
// sweeps its whole configuration — carries through.
func TestArrivalSeries(t *testing.T) {
	p, layout := buildScenario(t, 20, 1.2)
	sched := func() cluster.Scheduler { return cluster.LeastLoaded{} }
	failures := &avail.FailureModel{MTBF: 10 * core.Hour, MTTR: 30 * core.Minute}
	pol := resilience.All()
	base := sim.Config{
		Problem: p, Layout: layout, NewScheduler: sched,
		Failures: failures, Resilience: &pol, StreamLimit: 7,
	}
	ser := ArrivalSeries("λ", base)
	if ser.Name != "λ" {
		t.Fatalf("name %q", ser.Name)
	}
	for _, x := range []float64{16, 40} {
		cfg, err := ser.Config(x)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Problem == p {
			t.Fatal("point shares the base problem instead of a clone")
		}
		if want := x / 60; cfg.Problem.ArrivalRate != want {
			t.Fatalf("x=%g: rate %g, want %g", x, cfg.Problem.ArrivalRate, want)
		}
		if cfg.Problem.M() != p.M() || cfg.Problem.NumServers != p.NumServers {
			t.Fatalf("x=%g: clone lost the cluster shape", x)
		}
		if cfg.Layout != layout || cfg.Failures != failures || cfg.Resilience != &pol || cfg.StreamLimit != 7 {
			t.Fatalf("x=%g: base fields did not carry through: %+v", x, cfg)
		}
		if reflect.ValueOf(cfg.NewScheduler).Pointer() != reflect.ValueOf(sched).Pointer() {
			t.Fatalf("x=%g: scheduler factory did not carry through", x)
		}
	}
	if p.ArrivalRate != 20.0/core.Minute {
		t.Fatalf("base problem mutated: rate %g", p.ArrivalRate)
	}
}
