package vodcluster_test

import (
	"testing"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/exp"
	"vodcluster/internal/sim"
)

func TestReplicatorRegistry(t *testing.T) {
	for _, name := range []string{"adams", "zipf", "classification", "uniform"} {
		r, err := vodcluster.ReplicatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != name {
			t.Fatalf("lookup %q returned %q", name, r.Name())
		}
	}
	if _, err := vodcluster.ReplicatorByName("nope"); err == nil {
		t.Fatal("unknown replicator accepted")
	}
	if len(vodcluster.Replicators()) != 4 {
		t.Fatal("registry size changed without updating tests")
	}
}

func TestPlacerRegistry(t *testing.T) {
	for _, name := range []string{"slf", "roundrobin", "greedy", "random", "wslf", "bsr"} {
		p, err := vodcluster.PlacerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("lookup %q returned %q", name, p.Name())
		}
	}
	if _, err := vodcluster.PlacerByName("nope"); err == nil {
		t.Fatal("unknown placer accepted")
	}
}

func TestSchedulerFactory(t *testing.T) {
	for _, name := range []string{"", "static-rr", "first-available", "least-loaded"} {
		f, err := vodcluster.SchedulerFactory(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if f() == nil {
			t.Fatal("factory returned nil scheduler")
		}
	}
	if _, err := vodcluster.SchedulerFactory("nope", false); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	f, err := vodcluster.SchedulerFactory("static-rr", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := f().Name(); got != "static-rr+redirect" {
		t.Fatalf("redirect wrapper missing: %q", got)
	}
	// Factories must produce fresh instances (no shared state across runs).
	if f() == f() {
		t.Fatal("factory reused a scheduler instance")
	}
}

func TestBuildLayoutEndToEnd(t *testing.T) {
	s := config.Paper()
	p, err := s.Problem()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := vodcluster.ReplicatorByName("adams")
	pl, _ := vodcluster.PlacerByName("slf")
	layout, err := vodcluster.BuildLayout(p, r, pl, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(p); err != nil {
		t.Fatal(err)
	}
	if layout.TotalReplicas() != 120 {
		t.Fatalf("total replicas %d, want 120", layout.TotalReplicas())
	}
	if _, err := vodcluster.BuildLayout(p, r, pl, 0.2); err == nil {
		t.Fatal("degree below 1 accepted")
	}
}

func TestPipelineMatchesScenario(t *testing.T) {
	s := config.Paper()
	s.Degree = 1.4
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != s.Videos {
		t.Fatal("problem does not match scenario")
	}
	if layout.TotalReplicas() != 140 {
		t.Fatalf("replicas %d, want 140", layout.TotalReplicas())
	}
	if sched().Name() != "static-rr" {
		t.Fatal("scheduler mismatch")
	}
	s.Replicator = "bogus"
	if _, _, _, err := vodcluster.Pipeline(s); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestSweepArrivalRates(t *testing.T) {
	s := config.Paper()
	s.Videos = 40
	s.Servers = 4
	s.LambdaPerMin = 20
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	sw := &exp.Sweep{
		Xs:     []float64{5, 20, 30},
		Series: []exp.Series{exp.ArrivalSeries("sweep", sim.Config{Problem: p, Layout: layout, NewScheduler: sched})},
		Runs:   4,
		Seed:   1,
	}
	grid, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	pts := grid[0]
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	// Rejection must be (weakly) monotone across light → overload.
	if pts[0].Agg.RejectionRate.Mean() > pts[2].Agg.RejectionRate.Mean() {
		t.Fatalf("rejection not increasing in λ: %g vs %g",
			pts[0].Agg.RejectionRate.Mean(), pts[2].Agg.RejectionRate.Mean())
	}
	// Sweeping must not mutate the input problem's arrival rate.
	if p.ArrivalRate != 20.0/core.Minute {
		t.Fatal("sweep mutated the problem")
	}
}
