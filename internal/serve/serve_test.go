package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/policy"
)

// testProblem: 3 videos, 2 servers, 10 Mb/s links, 4 Mb/s videos — each
// server carries at most 2 concurrent streams, the same micro-cluster the
// cluster package tests use so behaviors stay comparable.
func testProblem(t testing.TB, backbone float64) *core.Problem {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.5, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         2,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 10 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
		BackboneBandwidth:  backbone,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// testLayout: v0 on both servers, v1 on s0 only, v2 on s1 only.
func testLayout(t testing.TB) *core.Layout {
	t.Helper()
	l := core.NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {2, 1}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func newTestCluster(t testing.TB, backbone float64) *Cluster {
	t.Helper()
	c, err := NewCluster(testProblem(t, backbone), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTryReserveNeverOversubscribes is the CAS invariant under contention:
// many goroutines race for a 2-slot link and exactly 2 win; releasing
// returns the accounting to zero.
func TestTryReserveNeverOversubscribes(t *testing.T) {
	c := newTestCluster(t, 0)
	rate := c.Rate(0)
	const racers = 64
	var wg sync.WaitGroup
	wins := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.TryReserve(0, rate) {
				wins <- struct{}{}
			}
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 2 {
		t.Fatalf("%d reservations won on a 2-slot link", won)
	}
	if got := c.Used(0); got != 2*rate {
		t.Fatalf("used = %d, want %d", got, 2*rate)
	}
	c.Release(0, rate)
	c.Release(0, rate)
	if got := c.Used(0); got != 0 {
		t.Fatalf("used = %d after full release, want 0", got)
	}
	if got := c.Active(0); got != 0 {
		t.Fatalf("active = %d after full release, want 0", got)
	}
}

// TestPolicyAdmitUntilSaturated: every policy admits exactly the cluster's
// stream capacity for v0 (2 per holder), then rejects, and recovers a slot
// on release.
func TestPolicyAdmitUntilSaturated(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			c := newTestCluster(t, 0)
			pol, err := NewPolicy(name, c)
			if err != nil {
				t.Fatal(err)
			}
			var grants []Grant
			for i := 0; i < 4; i++ {
				g, ok := pol.Admit(0)
				if !ok {
					t.Fatalf("admission %d rejected below capacity", i)
				}
				grants = append(grants, g)
			}
			if _, ok := pol.Admit(0); ok {
				t.Fatal("admission beyond cluster capacity")
			}
			pol.Release(grants[0])
			// Static round-robin only tries the rotation's designated
			// holder, so the freed slot may take a full rotation to reach.
			var g Grant
			ok := false
			for i := 0; i < 2 && !ok; i++ {
				g, ok = pol.Admit(0)
			}
			if !ok {
				t.Fatal("admission after release rejected for a full rotation")
			}
			pol.Release(g)
			for _, g := range grants[1:] {
				pol.Release(g)
			}
			for s := 0; s < c.Servers(); s++ {
				if c.Used(s) != 0 {
					t.Fatalf("server %d used = %d after full release", s, c.Used(s))
				}
			}
		})
	}
	if _, err := NewPolicy("nope", newTestCluster(t, 0)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestStaticRRMatchesSimPolicy: the daemon's static round-robin makes the
// same sequential accept/reject and placement decisions as the simulator's
// scheduler on a cluster.State.
func TestStaticRRMatchesSimPolicy(t *testing.T) {
	fast, err := NewPolicy("static-rr", newTestCluster(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cluster.New(testProblem(t, 0), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	videos := []int{0, 1, 0, 2, 0, 0, 1, 2, 0, 1, 2, 0}
	for i, v := range videos {
		fg, fok := fast.Admit(v)
		id, sok := st.Admit(v, cluster.StaticRoundRobin{})
		if fok != sok {
			t.Fatalf("request %d (video %d): daemon ok=%v, sim ok=%v", i, v, fok, sok)
		}
		if sg, _ := st.Lookup(id); fok && fg.Server != sg.Server {
			t.Fatalf("request %d (video %d): daemon server %d, sim server %d", i, v, fg.Server, sg.Server)
		}
	}
}

// TestServerSessionLifecycle: open → natural expiry under compression
// releases the reservation and counts a completion.
func TestServerSessionLifecycle(t *testing.T) {
	// 5400 s video at 100000× compression ≈ 54 ms of wall time.
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if info.ExpiresInS <= 0 || info.ExpiresInS > 1 {
		t.Fatalf("expires_in_s = %g, want ≈0.054", info.ExpiresInS)
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d, want 1", srv.Active())
	}
	waitUntil(t, 2*time.Second, "session expiry", func() bool { return srv.Active() == 0 })
	// The active count drops before the completion is counted, so wait for
	// the counter, the last step of the settlement.
	waitUntil(t, 2*time.Second, "completion count", func() bool { return srv.Metrics().completed.Load() == 1 })
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("server %d used = %d after expiry", info.Server, got)
	}
}

// TestServerClose: an early client close cancels the session exactly once.
func TestServerClose(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if !srv.Close(info.ID) {
		t.Fatal("close reported no such session")
	}
	waitUntil(t, 2*time.Second, "session teardown", func() bool { return srv.Active() == 0 })
	if srv.Close(info.ID) {
		t.Fatal("second close found the session again")
	}
	if got := srv.Metrics().canceled.Load(); got != 1 {
		t.Fatalf("canceled = %d, want 1", got)
	}
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("used = %d after close", got)
	}
}

// TestOpenRejectsBadVideo: out-of-catalog ranks error without touching the
// admission counters.
func TestOpenRejectsBadVideo(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for _, v := range []int{-1, 3, 1 << 20} {
		if _, _, err := srv.Open(v); err == nil {
			t.Fatalf("video %d admitted", v)
		}
	}
	if got := srv.Metrics().badVideo.Load(); got != 3 {
		t.Fatalf("bad_video = %d, want 3", got)
	}
	if got := srv.Metrics().Requests(); got != 0 {
		t.Fatalf("requests = %d, want 0", got)
	}
}

// TestDrainBackendFailover: draining a backend moves its sessions to the
// surviving replica holder when capacity allows and drops them otherwise.
func TestDrainBackendFailover(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	info, outcome, err := srv.Open(0) // least-loaded tie → server 0
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if info.Server != 0 {
		t.Fatalf("session landed on server %d, want 0", info.Server)
	}

	failedOver, dropped, err := srv.DrainBackend(0)
	if err != nil {
		t.Fatal(err)
	}
	if failedOver != 1 || dropped != 0 {
		t.Fatalf("drain: failedOver=%d dropped=%d, want 1,0", failedOver, dropped)
	}
	if got := srv.Cluster().Used(0); got != 0 {
		t.Fatalf("drained server still charged %d", got)
	}
	if got := srv.Cluster().Used(1); got != srv.Cluster().Rate(0) {
		t.Fatalf("survivor charged %d, want %d", got, srv.Cluster().Rate(0))
	}
	if srv.Active() != 1 {
		t.Fatalf("active = %d after failover, want 1", srv.Active())
	}

	// v1 lives only on the drained server: admission must now fail.
	if _, outcome, _ := srv.Open(1); outcome != OutcomeRejected {
		t.Fatalf("video on drained backend: outcome %q, want rejected", outcome)
	}

	// Draining the survivor leaves v0 nowhere to go: the session drops.
	failedOver, dropped, err = srv.DrainBackend(1)
	if err != nil {
		t.Fatal(err)
	}
	if failedOver != 0 || dropped != 1 {
		t.Fatalf("second drain: failedOver=%d dropped=%d, want 0,1", failedOver, dropped)
	}
	waitUntil(t, 2*time.Second, "dropped session teardown", func() bool { return srv.Active() == 0 })
	for s := 0; s < srv.Cluster().Servers(); s++ {
		if got := srv.Cluster().Used(s); got != 0 {
			t.Fatalf("server %d used = %d after drop", s, got)
		}
	}

	if err := srv.RestoreBackend(0); err != nil {
		t.Fatal(err)
	}
	if err := srv.RestoreBackend(1); err != nil {
		t.Fatal(err)
	}
	if _, outcome, err := srv.Open(1); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open after restore: outcome %q, err %v", outcome, err)
	}
	if _, _, err := srv.DrainBackend(7); err == nil {
		t.Fatal("drain of nonexistent backend accepted")
	}
}

// TestDrainBackendRedirect: with a backbone, drain fails a session over
// without leaking accounting, and draining a redirected stream's source
// tears it and returns its backbone charge, at one registry partition and
// at several.
func TestDrainBackendRedirect(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			srv, err := New(testProblem(t, 100*core.Mbps), testLayout(t), Config{Policy: "least-loaded", Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			if _, outcome, err := srv.Open(0); err != nil || outcome != OutcomeAccepted {
				t.Fatalf("open: outcome %q, err %v", outcome, err)
			}
			failedOver, dropped, err := srv.DrainBackend(0)
			if err != nil {
				t.Fatal(err)
			}
			if failedOver+dropped != 1 {
				t.Fatalf("drain settled %d sessions, want 1", failedOver+dropped)
			}
			if got := srv.Cluster().Used(0); got != 0 {
				t.Fatalf("drained server still charged %d", got)
			}
			if failedOver == 1 {
				if got := srv.Cluster().Used(1); got != srv.Cluster().Rate(0) {
					t.Fatalf("survivor charged %d, want %d", got, srv.Cluster().Rate(0))
				}
			}
			// v1 lives only on s0: fill it, redirect a third session through
			// s1, then drain s0 again. Every v1 session goes, the redirected
			// one because its source went.
			if err := srv.RestoreBackend(0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				info, outcome, err := srv.Open(1)
				if err != nil || outcome != OutcomeAccepted || info.Redirected != (i == 2) {
					t.Fatalf("open %d of v1: outcome %q, redirected=%v, err %v", i, outcome, info.Redirected, err)
				}
			}
			if _, dropped, err := srv.DrainBackend(0); err != nil || dropped != 3 {
				t.Fatalf("second drain dropped %d, err %v; want 3", dropped, err)
			}
			if got := srv.Cluster().BackboneUsed(); got != 0 {
				t.Fatalf("backbone used = %d after the source drained", got)
			}
			if got := srv.Cluster().Used(1); got != int64(failedOver)*srv.Cluster().Rate(0) {
				t.Fatalf("proxy still charged %d after the source drained", got)
			}
		})
	}
}

// TestServerDrainGraceful: daemon drain refuses new work, waits for active
// sessions, and a timed-out drain force-releases everything.
func TestServerDrainGraceful(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 2; i++ {
		if _, outcome, err := srv.Open(0); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %q, err %v", i, outcome, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after drain", srv.Active())
	}
	if _, outcome, _ := srv.Open(0); outcome != OutcomeDraining {
		t.Fatalf("open during drain: outcome %q, want draining", outcome)
	}
	if got := srv.Metrics().draining.Load(); got != 1 {
		t.Fatalf("draining rejections = %d, want 1", got)
	}
}

func TestServerDrainTimeout(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{}) // real-time: sessions outlive the test
	if err != nil {
		t.Fatal(err)
	}
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain of an immortal session reported success")
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after forced drain", srv.Active())
	}
	if got := srv.Cluster().Used(info.Server); got != 0 {
		t.Fatalf("used = %d after forced drain", got)
	}
}

// TestRedirect: with backbone bandwidth, every registered policy serves an
// exhausted video's requests over the backbone like the simulator's
// redirect scheduler, and the backbone gauge tracks it, at one registry
// partition and at several.
func TestRedirect(t *testing.T) {
	for _, name := range policy.Names() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				srv, err := New(testProblem(t, 100*core.Mbps), testLayout(t), Config{Policy: name, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Shutdown()
				if name := srv.PolicyName(); !strings.Contains(name, "redirect") {
					t.Fatalf("policy %q lacks redirect with a backbone", name)
				}
				// v1 lives only on s0 (2 slots). The third request must cross the
				// backbone to s1.
				for i := 0; i < 2; i++ {
					info, outcome, err := srv.Open(1)
					if err != nil || outcome != OutcomeAccepted || info.Redirected {
						t.Fatalf("open %d: outcome %q, redirected=%v, err %v", i, outcome, info.Redirected, err)
					}
				}
				info, outcome, err := srv.Open(1)
				if err != nil || outcome != OutcomeAccepted {
					t.Fatalf("redirect open: outcome %q, err %v", outcome, err)
				}
				if !info.Redirected {
					t.Fatal("third v1 session was not redirected")
				}
				if got := srv.Cluster().BackboneUsed(); got != srv.Cluster().Rate(1) {
					t.Fatalf("backbone used = %d, want %d", got, srv.Cluster().Rate(1))
				}
				if !srv.Close(info.ID) {
					t.Fatal("close failed")
				}
				waitUntil(t, 2*time.Second, "redirected session teardown", func() bool {
					return srv.Cluster().BackboneUsed() == 0
				})
			})
		}
	}
}

// TestConcurrentOpenCloseStress drives many concurrent admissions, closes,
// and natural expiries under every policy kind at one registry partition and
// at several; no admission may oversubscribe a link or the backbone, every
// accepted session must end exactly once, and afterwards every gauge must
// read zero — the accounting audit the race detector runs alongside.
func TestConcurrentOpenCloseStress(t *testing.T) {
	p := testProblem(t, 0)
	p.BandwidthPerServer = 400 * core.Mbps // 100 slots per server
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The backbone cases keep s0's 2-slot link, the only one holding v1, and
	// widen s1's to 10 slots, so v1 saturates s0 and redirects through s1
	// over a backbone with room for two streams.
	bb := testProblem(t, 8*core.Mbps)
	bb.ServerBandwidth = []float64{10 * core.Mbps, 40 * core.Mbps}
	if err := bb.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, policy string
		p            *core.Problem
	}{
		{"least-loaded", "least-loaded", p},
		{"static-rr", "static-rr", p},
		{"backbone/least-loaded", "least-loaded", bb},
		{"backbone/first-available", "first-available", bb},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					srv, err := New(tc.p, testLayout(t), Config{Policy: tc.policy, Compress: 2e5, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Shutdown()
					c := srv.Cluster()
					const workers, perWorker = 8, 40
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for i := 0; i < perWorker; i++ {
								info, outcome, err := srv.Open((w + i) % 3)
								if err != nil {
									t.Errorf("open: %v", err)
									return
								}
								if outcome != OutcomeAccepted {
									continue
								}
								if c.Used(info.Server) > c.Capacity(info.Server) {
									t.Errorf("server %d oversubscribed", info.Server)
								}
								if c.BackboneUsed() > int64(tc.p.BackboneBandwidth) {
									t.Errorf("backbone oversubscribed: %d", c.BackboneUsed())
								}
								if i%2 == 0 {
									srv.Close(info.ID)
								}
							}
						}(w)
					}
					wg.Wait()
					waitUntil(t, 5*time.Second, "all sessions to end", func() bool { return srv.Active() == 0 })
					for s := 0; s < c.Servers(); s++ {
						if got := c.Used(s); got != 0 {
							t.Fatalf("server %d used = %d after all sessions ended", s, got)
						}
						if got := c.Active(s); got != 0 {
							t.Fatalf("server %d active = %d after all sessions ended", s, got)
						}
					}
					if got := c.BackboneUsed(); got != 0 {
						t.Fatalf("backbone used = %d after all sessions ended", got)
					}
					m := srv.Metrics()
					if tc.p.BackboneBandwidth > 0 && m.redirects.Load() == 0 {
						t.Fatal("vod_redirected_total = 0 on a saturated backbone cluster")
					}
					// Active() drops before the end is counted, so wait for
					// the counters, the last step of each settlement.
					waitUntil(t, 5*time.Second, "every end to be counted", func() bool {
						return m.completed.Load()+m.canceled.Load() == m.accepted.Load()
					})
				})
			}
		})
	}
}

// TestConcurrentAdmissionAgainstSequentialCapacity: under full contention
// the admitted count can never exceed what the sequential cluster.State
// would admit, and with releases disabled both sides admit exactly the
// cluster's stream capacity.
func TestConcurrentAdmissionAgainstSequentialCapacity(t *testing.T) {
	c := newTestCluster(t, 0)
	pol, err := NewPolicy("least-loaded", c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cluster.New(testProblem(t, 0), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for {
		if _, ok := st.Admit(0, cluster.LeastLoaded{}); !ok {
			break
		}
		seq++
	}
	var wg sync.WaitGroup
	admitted := make(chan Grant, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g, ok := pol.Admit(0); ok {
				admitted <- g
			}
		}()
	}
	wg.Wait()
	close(admitted)
	conc := 0
	for range admitted {
		conc++
	}
	if conc != seq {
		t.Fatalf("concurrent policy admitted %d, sequential state admits %d", conc, seq)
	}
}

func TestNewClusterRejectsInvalidLayout(t *testing.T) {
	p := testProblem(t, 0)
	if _, err := NewCluster(p, core.NewLayout(3)); err == nil {
		t.Fatal("layout with no placements accepted")
	}
	rated := testLayout(t)
	rated.Rates = [][]float64{{4 * core.Mbps, 4 * core.Mbps}, {4 * core.Mbps}, {4 * core.Mbps}}
	if err := rated.Validate(p); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(p, rated); err == nil || !strings.Contains(err.Error(), "per-copy rates") {
		t.Fatalf("layout with per-copy rates: error %v, want a refusal naming per-copy rates", err)
	}
}

func TestWallDurationCompression(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 5400})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if got := srv.wallDuration(0); got != time.Second {
		t.Fatalf("wall duration = %s, want 1s", got)
	}
	if _, err := New(testProblem(t, 0), testLayout(t), Config{Compress: -1}); err == nil {
		t.Fatal("negative compression accepted")
	}
}

// TestUnboundedSessionNeverExpires: at a compression small enough that wall
// clamps a lifetime to the longest time.Duration, the deadline saturates
// instead of wrapping negative, so the session stays live until closed.
// Any admission after New has a positive nowNS start, so a wrapping add
// would put the deadline in the past.
func TestUnboundedSessionNeverExpires(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Compress: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if got := srv.wallDuration(0); got != math.MaxInt64 {
		t.Fatalf("wall duration = %d, want the clamp %d", got, int64(math.MaxInt64))
	}
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %v err %v", outcome, err)
	}
	// Fire the partition's due expiries here rather than wait for its
	// goroutine: the next deadline must be centuries away.
	if d := srv.partOf(info.ID).fireExpired(); d < 100*365*24*time.Hour {
		t.Fatalf("next expiry in %v", d)
	}
	if n := srv.Metrics().completed.Load(); n != 0 {
		t.Fatalf("%d sessions expired; an unbounded lifetime must not", n)
	}
	if !srv.Close(info.ID) {
		t.Fatal("session no longer live before its close")
	}
	assertNoLeaks(t, srv)
}

func TestPolicyNamesResolve(t *testing.T) {
	for _, name := range policy.Names() {
		if _, err := NewPolicy(name, newTestCluster(t, 0)); err != nil {
			t.Fatalf("advertised policy %q does not resolve: %v", name, err)
		}
	}
}
