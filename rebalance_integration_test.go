package vodcluster_test

import (
	"context"
	"testing"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/rebalance"
	"vodcluster/internal/serve"
	"vodcluster/internal/workload"
)

// driftScenario builds the demand-drift cluster: 8 videos with Zipf(1.2)
// popularity on 4 servers, each 40 Mb/s (10 concurrent streams), with the
// replica counts matched to the INITIAL popularity — the hot head gets 3
// copies, the runner-up 2, the tail singletons. The mid-trace rotation then
// moves the head's demand onto a singleton video, which one link cannot
// carry: exactly the drift a static layout cannot answer and the rebalancer
// exists to. The 12 Mb/s backbone carries three redirected streams, or the
// rebalancer's two 4 Mb/s migration copies and one: every admission may
// redirect, but redirection alone cannot carry the shifted head (a 1 Gb/s
// backbone would, and the static layout would then reject nothing).
func driftScenario(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	catalog, err := core.NewCatalog(8, 1.2, 4*core.Mbps, 10*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	size := catalog[0].SizeBytes()
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         4,
		StoragePerServer:   6 * size,
		BandwidthPerServer: 40 * core.Mbps,
		BackboneBandwidth:  12 * core.Mbps,
		ArrivalRate:        32.0 / (10 * core.Minute), // ~32 offered streams vs 40 slots
		PeakPeriod:         60 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	placement := [][]int{
		0: {0, 1, 2},
		1: {3, 0},
		2: {1},
		3: {2},
		4: {3},
		5: {0},
		6: {1},
		7: {2},
	}
	layout := core.NewLayout(len(catalog))
	for v, servers := range placement {
		for _, s := range servers {
			if err := layout.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p, layout
}

// driftDrillTrace materializes the drill workload: Poisson arrivals over the
// peak hour with a rank rotation of half the catalog at driftAt, so the
// videos that were the cold tail carry the head's demand afterwards.
func driftDrillTrace(t *testing.T, p *core.Problem, driftAt float64) *workload.Trace {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Poisson{Lambda: p.ArrivalRate}, p.M(), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(p.PeakPeriod, 7)
	if len(tr.Requests) < 120 {
		t.Fatalf("trace has only %d requests", len(tr.Requests))
	}
	drift := workload.Drift{At: driftAt} // default rotation: half the catalog
	tr, err = drift.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayDrill replays the trace against a fresh daemon, with or without the
// placement controller attached, and audits the accounting after the drain:
// whatever the rebalancer moved, every bandwidth gauge and the session
// registry must read zero once the cluster quiesces.
func replayDrill(t *testing.T, tr *workload.Trace, compress float64, withRebalance bool) (*serve.Report, *rebalance.Controller) {
	t.Helper()
	p, layout := driftScenario(t)
	srv, err := serve.New(p, layout, serve.Config{Policy: "least-loaded", Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	var ctl *rebalance.Controller
	if withRebalance {
		ctl, err = rebalance.New(srv, rebalance.Config{
			Interval:    60, // one control round per virtual minute
			Decay:       0.5,
			MinObserved: 4,
			CopyRate:    4 * core.Mbps,
			Budget:      8 * core.Mbps,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctl.Start()
	}
	base := startIngress(t, srv)
	defer srv.Shutdown()

	ctx := context.Background()
	rep, err := serve.NewClient(base).Replay(ctx, tr, compress)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors during replay; first: %v", rep.Errors, rep.FirstError)
	}
	if rep.Requests != len(tr.Requests) {
		t.Fatalf("replay settled %d of %d requests", rep.Requests, len(tr.Requests))
	}

	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if ctl != nil {
		ctl.Stop() // aborts in-flight copies and releases their reservations
	}
	if n := srv.Active(); n != 0 {
		t.Fatalf("%d sessions still registered after drain", n)
	}
	c := srv.Cluster()
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
	return rep, ctl
}

// TestRebalanceDriftDrill is the end-to-end proof behind the rebalance-smoke
// target, run under the race detector: the same demand-drift trace replayed
// over HTTP against a static daemon and against one running the placement
// controller. After the mid-trace popularity rotation the static layout
// funnels the new head video through its single replica's link and rejects
// the overflow; the controller re-estimates demand from the admission
// stream, re-anneals, and migrates copies toward the shifted head, so the
// post-shift rejection count must come out measurably lower — while staying
// inside its copy-bandwidth budget and leaking nothing once drained.
func TestRebalanceDriftDrill(t *testing.T) {
	const (
		compress = 600.0
		driftAt  = 1200.0
	)
	p, _ := driftScenario(t)
	tr := driftDrillTrace(t, p, driftAt)

	static, _ := replayDrill(t, tr, compress, false)
	rebal, ctl := replayDrill(t, tr, compress, true)

	statN, statRej := static.Since(driftAt)
	rebN, rebRej := rebal.Since(driftAt)
	if statN == 0 || rebN == 0 {
		t.Fatalf("no post-shift decisions (static %d, rebalance %d)", statN, rebN)
	}
	t.Logf("post-shift rejections: static %d/%d, rebalance %d/%d (migrations %d, evictions %d, rounds %d)",
		statRej, statN, rebRej, rebN, ctl.Migrations(), ctl.Evictions(), ctl.Rounds())
	if statRej == 0 {
		t.Fatal("static layout rejected nothing post-shift; the drill is not stressing the cluster")
	}
	if rebRej >= statRej {
		t.Fatalf("rebalancing did not lower post-shift rejections: static %d, rebalance %d", statRej, rebRej)
	}

	// The improvement must have come from actual migrations, journaled, with
	// the layout version advanced past the seed and the copy bandwidth inside
	// the budget the whole way.
	if ctl.Migrations() < 1 {
		t.Fatalf("controller landed %d migrations, want at least 1", ctl.Migrations())
	}
	status := ctl.Status()
	if status.LayoutVersion <= 1 {
		t.Fatalf("layout version %d after migrations, want > 1", status.LayoutVersion)
	}
	completed := 0
	for _, a := range status.Journal {
		if a.Action == "copy-complete" {
			completed++
		}
	}
	if completed < 1 {
		t.Fatalf("journal records no completed copies across %d entries", len(status.Journal))
	}
	if budget := ctl.Config().Budget; status.PeakCopyRateBps > budget+1e-6 {
		t.Fatalf("peak concurrent migration bandwidth %g exceeds budget %g", status.PeakCopyRateBps, budget)
	}
}
