package vodcluster_test

import (
	"context"
	"math"
	"testing"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/policy"
	"vodcluster/internal/resilience"
	"vodcluster/internal/serve"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

// chaosScenario builds the failure-drill cluster: 8 videos at 2 replicas on
// 4 servers (each server holds 4), 10 stream slots per server, a backbone
// for repair traffic, and storage headroom for re-replicated copies.
func chaosScenario(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	catalog := make(core.Catalog, 8)
	for v := range catalog {
		catalog[v] = core.Video{ID: v, Popularity: 0.125, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute}
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         4,
		StoragePerServer:   8 * catalog[0].SizeBytes(),
		BandwidthPerServer: 40 * core.Mbps,
		BackboneBandwidth:  100 * core.Mbps,
		ArrivalRate:        400.0 / (90 * core.Minute),
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := core.NewLayout(len(catalog))
	for v := range catalog {
		layout.Replicas[v] = 2
		for _, s := range []int{v % p.N(), (v + 1) % p.N()} {
			if err := layout.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p, layout
}

// TestChaosFailureDrill is the end-to-end failure drill the chaos-smoke
// target runs under the race detector: a scripted mid-trace crash of a
// backend holding a quarter of the catalog, replayed over HTTP against a
// self-healing daemon (failover + automatic re-replication), with recovery
// late in the trace. It asserts the full robustness contract:
//
//   - every request settles exactly once, crash or no crash;
//   - the live rejection rate — overall and over the post-failure window —
//     matches sim.Run with the same scripted failures (Config.FailAt +
//     Resilience) within 2 percentage points;
//   - the repairer restores every video to min(2, placed) live replicas
//     without ever exceeding its copy-bandwidth budget;
//   - after the cluster quiesces, no bandwidth is leaked anywhere: every
//     per-server gauge, the backbone gauge, and the session registry read
//     zero.
func TestChaosFailureDrill(t *testing.T) {
	p, layout := chaosScenario(t)
	const (
		compress = 2700.0
		failAt   = 1800.0
		healAt   = 4200.0
	)
	copyRate := 10 * core.Mbps
	budget := 4 * copyRate

	gen, err := workload.NewGenerator(workload.Poisson{Lambda: p.ArrivalRate}, p.M(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(p.PeakPeriod, 42)
	if len(tr.Requests) < 300 {
		t.Fatalf("trace has only %d requests", len(tr.Requests))
	}

	sched := &faults.Schedule{Events: []faults.Event{
		{At: failAt, Action: faults.ActionFail, Backend: 1},
		{At: healAt, Action: faults.ActionRecover, Backend: 1},
	}}
	if err := sched.Validate(p.N()); err != nil {
		t.Fatal(err)
	}

	// One resilience policy for both sides: always-on failover and the
	// repairer at the drill's copy rate and budget.
	pol := resilience.Policy{Failover: true, Repair: true, RepairRate: copyRate, RepairBudget: budget}
	srv, err := serve.New(p, layout, serve.Config{Policy: "least-loaded", Compress: compress, Resilience: &pol})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachInjector(faults.NewInjector())
	repairer := srv.Repairer()
	base := startIngress(t, srv)
	defer srv.Shutdown()

	client := serve.NewClient(base)
	defer client.Close()
	ctx := context.Background()
	schedErr := make(chan error, 1)
	go func() {
		schedErr <- sched.Run(ctx, compress, func(e faults.Event) error {
			return client.Fault(ctx, e)
		})
	}()
	rep, err := client.Replay(ctx, tr, compress)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-schedErr; err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors during replay; first: %v", rep.Errors, rep.FirstError)
	}
	if rep.Requests != len(tr.Requests) {
		t.Fatalf("replay settled %d of %d requests — a request settled zero or multiple times", rep.Requests, len(tr.Requests))
	}

	// The same trace and scripted failures through the simulator, under the
	// daemon's resilience policy.
	leastLoaded, err := policy.SchedulerFactory("least-loaded", p.BackboneBandwidth > 0)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{
		Problem:      p,
		Layout:       layout,
		NewScheduler: leastLoaded,
		Trace:        tr,
		Duration:     tr.Meta.Duration,
		Seed:         42,
		FailAt:       sched.FailAt(),
		Resilience:   &pol,
	}
	simRes, err := sim.Run(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	livePct := 100 * rep.RejectionRate()
	simPct := 100 * simRes.RejectionRate
	if delta := math.Abs(livePct - simPct); delta > 2 {
		t.Fatalf("live rejection %.2f%% vs simulated %.2f%%: |Δ| = %.2f points exceeds 2", livePct, simPct, delta)
	}
	t.Logf("whole run: live %.2f%% vs sim %.2f%%", livePct, simPct)

	// Post-failure window: only decisions dispatched after the crash, against
	// a simulator run warmed up to the same boundary.
	pfCfg := simCfg
	pfCfg.Warmup = failAt
	pfRes, err := sim.Run(pfCfg)
	if err != nil {
		t.Fatal(err)
	}
	liveN, liveRej := rep.Since(failAt)
	if liveN == 0 {
		t.Fatal("no live decisions dispatched after the crash")
	}
	livePct = 100 * float64(liveRej) / float64(liveN)
	simPct = 100 * pfRes.RejectionRate
	if delta := math.Abs(livePct - simPct); delta > 2 {
		t.Fatalf("post-failure live rejection %.2f%% vs simulated %.2f%%: |Δ| = %.2f points exceeds 2", livePct, simPct, delta)
	}
	t.Logf("post-failure: live %.2f%% vs sim %.2f%% over %d live decisions", livePct, simPct, liveN)

	// Self-healing: the crash left 4 videos at 1 live replica; the repairer
	// must have restored them, within its bandwidth budget.
	if got := repairer.Completed(); got < 1 {
		t.Fatalf("repairer completed %d copies, want at least 1 (started %d, aborted %d, skipped %d)",
			got, repairer.Started(), repairer.Aborted(), repairer.Skipped())
	}
	if peak := repairer.PeakCopyRate(); peak > budget+1e-6 {
		t.Fatalf("peak concurrent repair bandwidth %g exceeds budget %g", peak, budget)
	}
	c := srv.Cluster()
	for v := 0; v < c.Videos(); v++ {
		want := min(2, len(c.Holders(v)))
		if got := c.LiveReplicas(v); got < want {
			t.Fatalf("video %d has %d live replicas after the drill, want at least %d", v, got, want)
		}
	}

	// Quiesce and audit the accounting: drain out the remaining sessions,
	// wait for in-flight repair copies, and require every gauge at zero —
	// the single-settlement invariant made observable.
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for repairer.Inflight() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := repairer.Inflight(); n != 0 {
		t.Fatalf("%d repair copies still in flight after quiesce", n)
	}
	if n := srv.Active(); n != 0 {
		t.Fatalf("%d sessions still registered after drain", n)
	}
	for s := 0; s < c.Servers(); s++ {
		if used := c.Used(s); used != 0 {
			t.Fatalf("server %d leaks %d bit/s after quiesce", s, used)
		}
		if active := c.Active(s); active != 0 {
			t.Fatalf("server %d leaks %d active-stream counts after quiesce", s, active)
		}
	}
	if used := c.BackboneUsed(); used != 0 {
		t.Fatalf("backbone leaks %d bit/s after quiesce", used)
	}
}
