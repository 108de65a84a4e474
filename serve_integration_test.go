package vodcluster_test

import (
	"context"
	"math"
	"testing"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/policy"
	"vodcluster/internal/serve"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

// startIngress fronts srv with the daemon's one front, a one-listener
// ingress on a loopback port, and returns its base URL. The ingress closes
// when the test ends.
func startIngress(t *testing.T, srv *serve.Server) string {
	t.Helper()
	ing, err := serve.NewIngress(srv, serve.IngressConfig{Listeners: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ing.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ing.Close)
	return "http://" + addr.String()
}

// replayAgainstLive boots an in-process daemon for the problem/layout pair,
// replays the trace through vodload's client library, and returns the
// replay report.
func replayAgainstLive(t *testing.T, p *core.Problem, layout *core.Layout,
	policy string, tr *workload.Trace, compress float64) *serve.Report {
	t.Helper()
	srv, err := serve.New(p, layout, serve.Config{Policy: policy, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	base := startIngress(t, srv)
	defer srv.Shutdown()

	rep, err := serve.NewClient(base).Replay(context.Background(), tr, compress)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors during replay; first: %v", rep.Errors, rep.FirstError)
	}
	if rep.Requests != len(tr.Requests) {
		t.Fatalf("replay settled %d of %d requests", rep.Requests, len(tr.Requests))
	}
	return rep
}

// TestLiveMatchesSimOnSaturatedTrace cross-validates the serving layer on a
// deliberately overloaded micro-cluster: a 200-request trace against 20
// stream slots, so most requests are rejected and the live daemon's
// rejection rate must land within ±2 percentage points of sim.Run on the
// identical trace.
func TestLiveMatchesSimOnSaturatedTrace(t *testing.T) {
	catalog := make(core.Catalog, 5)
	for v := range catalog {
		catalog[v] = core.Video{ID: v, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute}
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         2,
		StoragePerServer:   5 * catalog[0].SizeBytes(),
		BandwidthPerServer: 40 * core.Mbps, // 10 slots per server
		ArrivalRate:        200.0 / (90 * core.Minute),
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := core.NewLayout(len(catalog))
	layout.Replicas = []int{2, 2, 2, 2, 2}
	for v := range catalog {
		for s := 0; s < 2; s++ {
			if err := layout.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}

	gen, err := workload.NewGenerator(workload.Poisson{Lambda: p.ArrivalRate}, p.M(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(p.PeakPeriod, 42)
	if n := len(tr.Requests); n < 150 || n > 250 {
		t.Fatalf("trace has %d requests, want ≈200", n)
	}

	leastLoaded, err := policy.SchedulerFactory("least-loaded", false)
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(sim.Config{
		Problem:      p,
		Layout:       layout,
		NewScheduler: leastLoaded,
		Trace:        tr,
		Duration:     tr.Meta.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.RejectionRate < 0.5 {
		t.Fatalf("simulated rejection rate %.2f; the scenario is not saturated enough to exercise rejection", simRes.RejectionRate)
	}

	// 5400 virtual seconds in ~1.1 s of wall time.
	rep := replayAgainstLive(t, p, layout, "least-loaded", tr, 5000)

	livePct := 100 * rep.RejectionRate()
	simPct := 100 * simRes.RejectionRate
	if delta := math.Abs(livePct - simPct); delta > 2 {
		t.Fatalf("live rejection %.2f%% vs simulated %.2f%%: |Δ| = %.2f points exceeds 2", livePct, simPct, delta)
	}
	t.Logf("live %.2f%% vs sim %.2f%%", livePct, simPct)
}

// TestLiveMatchesSimAtPaperOperatingPoint is the acceptance gate on the
// paper's Fig. 4 default operating point (λ = 40 req/min, degree 1.2,
// zipf + slf + static-rr): a full 90-minute peak-period trace replayed
// against the live daemon must reproduce the simulated rejection rate
// within ±2 percentage points.
func TestLiveMatchesSimAtPaperOperatingPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("3600-request live replay; skipped in -short mode")
	}
	s := config.Paper()
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.NewPoissonPerMinute(s.LambdaPerMin), p.M(), s.Theta)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(p.PeakPeriod, s.Seed)

	simRes, err := sim.Run(sim.Config{
		Problem:      p,
		Layout:       layout,
		NewScheduler: sched,
		Trace:        tr,
		Duration:     tr.Meta.Duration,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 5400 virtual seconds in ~2 s of wall time; the daemon runs the same
	// static-rr policy the scenario's scheduler names.
	rep := replayAgainstLive(t, p, layout, s.Scheduler, tr, 2700)

	livePct := 100 * rep.RejectionRate()
	simPct := 100 * simRes.RejectionRate
	if delta := math.Abs(livePct - simPct); delta > 2 {
		t.Fatalf("live rejection %.2f%% vs simulated %.2f%%: |Δ| = %.2f points exceeds 2", livePct, simPct, delta)
	}
	t.Logf("live %.2f%% vs sim %.2f%% over %d requests", livePct, simPct, rep.Requests)
}
