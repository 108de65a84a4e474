package vodcluster_test

// Cross-cutting integration tests: combinations of subsystems that the
// per-package suites exercise only in isolation — failures + redirection,
// dynamic replication + failures, heterogeneous scenarios through the full
// pipeline, and analytic-vs-simulated consistency through the facade.

import (
	"math"
	"testing"

	"vodcluster"
	"vodcluster/internal/analytic"
	"vodcluster/internal/avail"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/dynrep"
	"vodcluster/internal/place"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

// TestRedirectionUnderFailures: backbone redirection must keep helping when
// servers fail — redirected service routes around saturated links, and the
// combination must never do worse than the plain policy.
func TestRedirectionUnderFailures(t *testing.T) {
	f := &avail.FailureModel{MTBF: 8 * core.Hour, MTTR: 30 * core.Minute}
	rate := func(backbone float64) float64 {
		s := config.Paper()
		s.Degree = 1.2
		s.LambdaPerMin = 36
		s.BackboneGbps = backbone
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			t.Fatal(err)
		}
		agg, _, err := sim.RunMany(sim.Config{
			Problem: p, Layout: layout, NewScheduler: sched,
			Failures: f, Seed: 99,
		}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return agg.RejectionRate.Mean()
	}
	plain := rate(0)
	redirected := rate(2)
	if plain <= 0 {
		t.Skip("no rejections to redirect at this configuration")
	}
	if redirected > plain+1e-9 {
		t.Fatalf("redirection under failures hurt: %.4f vs %.4f", redirected, plain)
	}
}

// TestDynamicReplicationUnderFailures: the runtime manager must coexist with
// failure injection — migrations to live servers, no lost last copies, no
// panics — and still reduce rejections after a popularity shift.
func TestDynamicReplicationUnderFailures(t *testing.T) {
	s := config.Paper()
	s.Degree = 1.2
	s.BackboneGbps = 2
	p, layout, _, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.NewPoissonPerMinute(40), p.M(), s.Theta)
	if err != nil {
		t.Fatal(err)
	}
	f := &avail.FailureModel{MTBF: 6 * core.Hour, MTTR: 20 * core.Minute}

	var static, dynamic float64
	runs := 8
	for i := 0; i < runs; i++ {
		tr := gen.Generate(p.PeakPeriod, int64(300+i))
		shifted, err := tr.Remap(workload.RotationMapping(p.M(), p.M()/2), p.PeakPeriod/2)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sim.Run(sim.Config{Problem: p, Layout: layout, Trace: shifted, Failures: f, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		static += sres.FailureRate
		dres, err := sim.Run(sim.Config{
			Problem: p, Layout: layout, Trace: shifted, Failures: f, Seed: int64(i),
			NewController: func() sim.Controller {
				m, err := dynrep.New(p, dynrep.Options{IntervalSec: 300, MaxPerTick: 4})
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dynamic += dres.FailureRate
	}
	if dynamic > static+0.01*float64(runs) {
		t.Fatalf("dynamic replication under failures hurt: %.4f vs %.4f",
			dynamic/float64(runs), static/float64(runs))
	}
}

// TestHeterogeneousScenarioEndToEnd: the JSON-configurable heterogeneous
// pipeline produces a valid layout that respects per-server capacities and
// simulates cleanly with every placer.
func TestHeterogeneousScenarioEndToEnd(t *testing.T) {
	for _, placer := range []string{"slf", "wslf", "bsr", "roundrobin", "greedy"} {
		s := config.Paper()
		s.Servers = 6
		s.ServerBandwidthGbps = []float64{2.4, 2.4, 2.4, 1.2, 1.2, 1.2}
		s.ServerStorageGB = []float64{81, 81, 81, 27, 27, 27} // 3×30 + 3×10 = 120 replicas
		s.LambdaPerMin = 30
		s.Degree = 1.2
		s.Placer = placer
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			t.Fatalf("%s: %v", placer, err)
		}
		used := layout.ServerStorageUsed(p)
		for sv, u := range used {
			if u > p.StorageOf(sv)*(1+1e-9) {
				t.Fatalf("%s overfilled server %d", placer, sv)
			}
		}
		res, err := sim.Run(sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", placer, err)
		}
		if res.Requests == 0 {
			t.Fatalf("%s: no arrivals", placer)
		}
	}
}

// TestAnalyticConsistencyAcrossPlacers: for any placer's layout, the
// Erlang-B cluster prediction must be at least the pooled lower bound, and
// better-balanced layouts must never predict worse than clearly inferior
// ones.
func TestAnalyticConsistencyAcrossPlacers(t *testing.T) {
	s := config.Paper()
	s.Degree = 1.2
	p, err := s.Problem()
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := analytic.PooledBlocking(p)
	if err != nil {
		t.Fatal(err)
	}
	predictions := map[string]float64{}
	for _, placer := range []string{"slf", "roundrobin", "random"} {
		r, err := vodcluster.ReplicatorByName("zipf")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := vodcluster.PlacerByName(placer)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := vodcluster.BuildLayout(p, r, pl, s.Degree)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := analytic.ReplicatedBlocking(p, layout)
		if err != nil {
			t.Fatal(err)
		}
		if pred < pooled-1e-12 {
			t.Fatalf("%s: partitioned prediction %g below pooled bound %g", placer, pred, pooled)
		}
		predictions[placer] = pred
	}
	if predictions["slf"] > predictions["random"]+1e-9 {
		t.Fatalf("SLF layout predicts more blocking (%g) than a random layout (%g)",
			predictions["slf"], predictions["random"])
	}
}

// TestPlanRoundtripThroughPipeline: a plan written from one pipeline
// reproduces the identical simulation outcome when replayed.
func TestPlanRoundtripThroughPipeline(t *testing.T) {
	s := config.Paper()
	s.Videos = 40
	s.Servers = 4
	s.LambdaPerMin = 16
	p, layout, _, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	plan := config.NewPlan(s, layout)
	p2, layout2, err := plan.Layout()
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Run(sim.Config{Problem: p, Layout: layout, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(sim.Config{Problem: p2, Layout: layout2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Rejected != b.Rejected ||
		math.Abs(a.ImbalanceAvg-b.ImbalanceAvg) > 1e-12 {
		t.Fatal("replayed plan diverged from the original pipeline")
	}
}

// TestTheoremBoundSurvivesPipeline: the facade-produced SLF layout respects
// the generalized Theorem 4.2 bound at paper scale.
func TestTheoremBoundSurvivesPipeline(t *testing.T) {
	for _, degree := range []float64{1.0, 1.2, 1.6, 2.0} {
		s := config.Paper()
		s.Degree = degree
		p, layout, _, err := vodcluster.Pipeline(s)
		if err != nil {
			t.Fatal(err)
		}
		bound := place.GeneralBound(p, layout.ReplicaCounts())
		got := core.ImbalanceStd(layout.ServerLoads(p))
		if got > bound+1e-9 {
			t.Fatalf("degree %g: Eq.3 L = %g exceeds bound %g", degree, got, bound)
		}
	}
}
