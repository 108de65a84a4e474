package serve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/faults"
	"vodcluster/internal/resilience"
)

// TestBackendTypedErrors walks every refused backend transition and checks
// the typed error contract callers (and the HTTP layer's status mapping)
// dispatch on.
func TestBackendTypedErrors(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	var re *BackendRangeError
	if _, _, err := srv.DrainBackend(7); !errors.As(err, &re) || re.Backend != 7 {
		t.Fatalf("drain out of range: err %v, want *BackendRangeError for 7", err)
	}
	if _, _, err := srv.FailBackend(-1); !errors.As(err, &re) {
		t.Fatalf("fail out of range: err %v, want *BackendRangeError", err)
	}
	if err := srv.RestoreBackend(2); !errors.As(err, &re) {
		t.Fatalf("restore out of range: err %v, want *BackendRangeError", err)
	}
	if err := srv.RecoverBackend(2); !errors.As(err, &re) {
		t.Fatalf("recover out of range: err %v, want *BackendRangeError", err)
	}

	// Recovery is only for crashed backends.
	if err := srv.RecoverBackend(0); !errors.Is(err, ErrBackendNotDown) {
		t.Fatalf("recover of an up backend: err %v, want ErrBackendNotDown", err)
	}

	// A second drain of a draining backend is refused…
	if _, _, err := srv.DrainBackend(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.DrainBackend(0); !errors.Is(err, ErrBackendDraining) {
		t.Fatalf("double drain: err %v, want ErrBackendDraining", err)
	}
	// …but a crash overrides a drain: maintenance does not protect a backend
	// from actually dying.
	if _, _, err := srv.FailBackend(0); err != nil {
		t.Fatalf("crash of a draining backend refused: %v", err)
	}
	if got := srv.Cluster().State(0); got != BackendDown {
		t.Fatalf("state after crash = %v, want down", got)
	}

	// Down refuses everything except recovery.
	if _, _, err := srv.DrainBackend(0); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("drain of a down backend: err %v, want ErrBackendDown", err)
	}
	if _, _, err := srv.FailBackend(0); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("double crash: err %v, want ErrBackendDown", err)
	}
	if err := srv.RestoreBackend(0); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("restore of a down backend: err %v, want ErrBackendDown", err)
	}
	// With no health checker attached, recovery goes straight to Up.
	if err := srv.RecoverBackend(0); err != nil {
		t.Fatal(err)
	}
	if got := srv.Cluster().State(0); got != BackendUp {
		t.Fatalf("state after recover = %v, want up", got)
	}
}

// TestConcurrentFailDrainStorm races FailBackend against DrainBackend on the
// same backend, round after round, under a saturating admission storm — the
// single-settlement torture test the race detector runs alongside. Each
// round at least one racer must win the claim; losers get only the typed
// sentinels; and when the storm ends every session has ended through exactly
// one of the three terminal paths and every bandwidth gauge reads zero.
func TestConcurrentFailDrainStorm(t *testing.T) {
	p := testProblem(t, 0)
	p.BandwidthPerServer = 400 * core.Mbps // 100 slots per server
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(p, testLayout(t), Config{Compress: 2e5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	for w := 0; w < 8; w++ {
		storm.Add(1)
		go func(w int) {
			defer storm.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				info, outcome, err := srv.Open((w + i) % 3)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if outcome == OutcomeAccepted && i%2 == 0 {
					srv.Close(info.ID)
				}
			}
		}(w)
	}

	for round := 0; round < 30; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); _, _, errs[0] = srv.FailBackend(0) }()
		go func() { defer wg.Done(); _, _, errs[1] = srv.DrainBackend(0) }()
		wg.Wait()
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrBackendDown) && !errors.Is(err, ErrBackendDraining) {
				t.Fatalf("round %d racer %d: unexpected error %v", round, i, err)
			}
		}
		if errs[0] != nil && errs[1] != nil {
			t.Fatalf("round %d: both racers lost the claim (%v; %v)", round, errs[0], errs[1])
		}
		switch st := srv.Cluster().State(0); st {
		case BackendDown:
			if err := srv.RecoverBackend(0); err != nil {
				t.Fatalf("round %d recover: %v", round, err)
			}
		case BackendDraining:
			if err := srv.RestoreBackend(0); err != nil {
				t.Fatalf("round %d restore: %v", round, err)
			}
		default:
			t.Fatalf("round %d left backend 0 in state %v", round, st)
		}
	}

	close(stop)
	storm.Wait()
	waitUntil(t, 10*time.Second, "all sessions to end", func() bool { return srv.Active() == 0 })
	c := srv.Cluster()
	for s := 0; s < c.Servers(); s++ {
		if got := c.Used(s); got != 0 {
			t.Fatalf("server %d leaks %d bit/s after the storm", s, got)
		}
		if got := c.Active(s); got != 0 {
			t.Fatalf("server %d leaks %d active-stream counts after the storm", s, got)
		}
	}
	m := srv.Metrics()
	if ended := m.completed.Load() + m.canceled.Load() + m.dropped.Load(); ended != m.accepted.Load() {
		t.Fatalf("ended %d sessions (completed+canceled+dropped), accepted %d — some session settled zero or multiple times",
			ended, m.accepted.Load())
	}
}

// TestFailoverAdmissionOrder is the failover-order drill: a crashed backend
// carries ten sessions and the one surviving holder has room for three, so
// seven must be dropped. The three that fail over are the three admitted
// first, on every run and at 1 and 4 registry partitions: evictSessions
// settles in session-ID order, as State.FailServer tears streams, not in
// map order.
func TestFailoverAdmissionOrder(t *testing.T) {
	c := core.Catalog{
		{ID: 0, Popularity: 0.6, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 2, Popularity: 0.1, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         4,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 40 * core.Mbps, // 10 sessions a backend
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// v0 on {0, 1}, v1 on {1}, v2 on {2, 3}.
	l := core.NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 4} {
		var want []int64
		for run := 0; run < 20; run++ {
			srv, err := New(p, l, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			open := func(v int) int64 {
				info, outcome, err := srv.Open(v)
				if err != nil || outcome != OutcomeAccepted {
					t.Fatalf("open v%d: outcome %q, err %v", v, outcome, err)
				}
				return info.ID
			}
			// s0 takes every v0 session while s1 drains, then s1 takes
			// seven v1 sessions and keeps room for three.
			if _, _, err := srv.DrainBackend(1); err != nil {
				t.Fatal(err)
			}
			var onS0 []int64
			for i := 0; i < 10; i++ {
				onS0 = append(onS0, open(0))
			}
			if err := srv.RestoreBackend(1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 7; i++ {
				open(1)
			}
			failedOver, dropped, err := srv.FailBackend(0)
			if err != nil || failedOver != 3 || dropped != 7 {
				t.Fatalf("shards=%d run %d: failed over %d, dropped %d, err %v; want 3 and 7", shards, run, failedOver, dropped, err)
			}
			var moved []int64
			for _, id := range onS0 {
				if srv.Close(id) {
					moved = append(moved, id)
				}
			}
			srv.Shutdown()
			if want == nil {
				want = onS0[:3]
			}
			if !slices.Equal(moved, want) {
				t.Fatalf("shards=%d run %d: sessions %v failed over, want the first admitted %v", shards, run, moved, want)
			}
		}
	}
}

// TestHealthCheckerStateMachine drives the probe loop by hand (the loop
// itself is started on an hour-long interval so only manual sweeps fire) and
// walks the full state machine against an injector:
//
//	up → suspect → down      (FailThreshold consecutive failures)
//	down → recovering → up   (RecoverThreshold consecutive successes)
//	recovering → down        (any failure during probation)
//	suspect → up             (recovery before the crash confirms)
//	draining                 (skipped entirely)
func TestHealthCheckerStateMachine(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.NewInjector()
	h := NewHealthChecker(srv, in, HealthConfig{Interval: time.Hour, FailThreshold: 3, RecoverThreshold: 2})
	h.Start()
	defer srv.Shutdown()
	c := srv.Cluster()
	m := srv.Metrics()

	if cfg := h.Config(); cfg.Timeout != 30*time.Minute {
		t.Fatalf("defaulted probe timeout = %s, want Interval/2", cfg.Timeout)
	}

	info, outcome, err := srv.Open(0) // least-loaded tie → server 0
	if err != nil || outcome != OutcomeAccepted || info.Server != 0 {
		t.Fatalf("open: outcome %q server %d, err %v", outcome, info.Server, err)
	}

	h.sweep() // all healthy
	if got := m.probeOK.Load(); got != 2 {
		t.Fatalf("probe_ok = %d after one clean sweep of 2 backends, want 2", got)
	}

	// up → suspect → down, with the confirmed crash evicting the session.
	in.Crash(0)
	h.sweep()
	if got := c.State(0); got != BackendSuspect {
		t.Fatalf("state after 1 failed probe = %v, want suspect", got)
	}
	if !c.Eligible(0) {
		t.Fatal("suspect backend refused placements; suspicion must not evict")
	}
	h.sweep()
	if got := c.State(0); got != BackendSuspect {
		t.Fatalf("state after 2 failed probes = %v, want suspect", got)
	}
	h.sweep()
	if got := c.State(0); got != BackendDown {
		t.Fatalf("state after FailThreshold probes = %v, want down", got)
	}
	if got := m.backendFailures.Load(); got != 1 {
		t.Fatalf("backend_failures = %d, want 1", got)
	}
	if got := m.failedOver.Load(); got != 1 {
		t.Fatalf("failovers = %d; the confirmed crash must evict through FailBackend", got)
	}
	if got := c.Used(0); got != 0 {
		t.Fatalf("down backend still charged %d", got)
	}
	h.sweep() // still down: no double settlement
	if got := m.backendFailures.Load(); got != 1 {
		t.Fatalf("backend_failures = %d after an extra down sweep, want 1", got)
	}

	// down → recovering (first clean probe) → up (threshold).
	in.Recover(0)
	h.sweep()
	if got := c.State(0); got != BackendRecovering {
		t.Fatalf("state after first clean probe = %v, want recovering (checker attached)", got)
	}
	h.sweep()
	if got := c.State(0); got != BackendUp {
		t.Fatalf("state after RecoverThreshold clean probes = %v, want up", got)
	}

	// recovering → down: a failure during probation confirms immediately.
	in.Crash(0)
	h.sweep()
	h.sweep()
	h.sweep()
	in.Recover(0)
	h.sweep()
	if got := c.State(0); got != BackendRecovering {
		t.Fatalf("state = %v, want recovering", got)
	}
	in.Crash(0)
	h.sweep()
	if got := c.State(0); got != BackendDown {
		t.Fatalf("state after probation failure = %v, want down without waiting out FailThreshold", got)
	}

	// suspect → up: a blip that clears before the threshold never evicts.
	in.Recover(0)
	h.sweep()
	h.sweep() // back to up
	failuresBefore := m.backendFailures.Load()
	in.Crash(0)
	h.sweep()
	in.Recover(0)
	h.sweep()
	h.sweep()
	if got := c.State(0); got != BackendUp {
		t.Fatalf("state after a cleared blip = %v, want up", got)
	}
	if got := m.backendFailures.Load(); got != failuresBefore {
		t.Fatalf("a sub-threshold blip confirmed a crash (%d → %d)", failuresBefore, got)
	}

	// Draining backends are operator-owned: never probed, never transitioned.
	if _, _, err := srv.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	in.Crash(1)
	probesBefore := m.probeOK.Load() + m.probeFail.Load()
	h.sweep()
	h.sweep()
	h.sweep()
	if got := c.State(1); got != BackendDraining {
		t.Fatalf("draining backend transitioned to %v under failed probes", got)
	}
	if got := m.probeOK.Load() + m.probeFail.Load(); got != probesBefore+3 {
		t.Fatalf("probe count rose by %d over 3 sweeps, want 3 (backend 0 only; draining skipped)", got-probesBefore)
	}
}

// repairScenario builds the smallest cluster where a crash leaves a
// restorable replica gap: 3 servers, 2 videos at 2 replicas, with s1 holding
// both (storage-full) and s0/s2 holding one each (one slot of storage free).
// Crashing s0 drops v0 to one live replica; the only viable repair is a copy
// from s1 onto s2.
func repairScenario(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.5, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.5, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 40 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(2)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 1}, {1, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return p, l
}

// TestRepairerRestoresReplica: a crash kicks the repairer, which copies the
// under-replicated video from its most-free surviving holder onto the
// eligible non-holder with storage room, journals the transfer, publishes
// the landed replica, and releases the copy bandwidth. A second crash that
// leaves no viable destination is skipped, not wedged.
func TestRepairerRestoresReplica(t *testing.T) {
	p, layout := repairScenario(t)
	srv := repairServer(t, p, layout, 1e5, 0)
	rep := srv.Repairer()
	defer srv.Shutdown()
	c := srv.Cluster()

	if _, _, err := srv.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "repair copy to land", func() bool { return rep.Completed() == 1 })
	if got := len(c.Holders(0)); got != 3 {
		t.Fatalf("v0 has %d placed replicas after repair, want 3 (crashed + 2 live)", got)
	}
	if got := c.LiveReplicas(0); got != 2 {
		t.Fatalf("v0 has %d live replicas after repair, want 2", got)
	}
	if got := srv.Metrics().rereplications.Load(); got != 1 {
		t.Fatalf("vod_rereplications_total = %d, want 1", got)
	}
	waitUntil(t, 2*time.Second, "copy bandwidth release", func() bool { return c.Used(1) == 0 })
	journal := rep.Journal()
	if len(journal) != 2 {
		t.Fatalf("journal has %d entries, want start+complete: %+v", len(journal), journal)
	}
	for i, action := range []string{"start", "complete"} {
		e := journal[i]
		if e.Action != action || e.Video != 0 || e.Src != 1 || e.Dst != 2 {
			t.Fatalf("journal[%d] = %+v, want %s of v0 from 1 to 2", i, e, action)
		}
	}

	// Crash the donor too: v0 and v1 still have a live copy on s2, but no
	// eligible destination remains — the scans must record skips and move on.
	if _, _, err := srv.FailBackend(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "destination-less repairs to be skipped", func() bool { return rep.Skipped() >= 1 })
	if got := rep.Completed(); got != 1 {
		t.Fatalf("completed copies = %d after the destination-less crash, want still 1", got)
	}
}

// TestRepairerAbortsWhenDestinationDies: a destination crashing mid-copy
// voids the landed bytes — the transfer aborts, no replica is published.
func TestRepairerAbortsWhenDestinationDies(t *testing.T) {
	p, layout := repairScenario(t)
	srv := repairServer(t, p, layout, 1e4, 0) // copy wall ≈ 108 ms
	rep := srv.Repairer()
	defer srv.Shutdown()

	if _, _, err := srv.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "repair copy to start", func() bool { return rep.Inflight() == 1 })
	if _, _, err := srv.FailBackend(2); err != nil { // the destination dies mid-copy
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "copy to abort", func() bool { return rep.Aborted() >= 1 })
	if got := rep.Completed(); got != 0 {
		t.Fatalf("completed = %d, want 0: a dead destination must not publish a replica", got)
	}
	if got := len(srv.Cluster().Holders(0)); got != 2 {
		t.Fatalf("v0 has %d placed replicas, want the original 2", got)
	}
}

// repairServer boots a daemon whose repairer copies at 20 Mb/s under the
// given budget (0: none). Its scan interval is huge in wall terms, so only
// FailBackend's kick triggers scans.
func repairServer(t *testing.T, p *core.Problem, layout *core.Layout, compress, budget float64) *Server {
	t.Helper()
	srv, err := New(p, layout, Config{Compress: compress, Resilience: &resilience.Policy{
		Failover: true, Repair: true, RepairRate: 20 * core.Mbps, RepairInterval: 1e9, RepairBudget: budget,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestRepairerBudget: a budget below one copy's rate blocks every copy (the
// degenerate case that proves the budget gate runs before any reservation).
func TestRepairerBudget(t *testing.T) {
	p, layout := repairScenario(t)
	srv := repairServer(t, p, layout, 1e5, 10*core.Mbps)
	rep := srv.Repairer()
	defer srv.Shutdown()
	if _, _, err := srv.FailBackend(0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "budget-starved repair to be skipped", func() bool { return rep.Skipped() >= 1 })
	if got := rep.Started(); got != 0 {
		t.Fatalf("started = %d under an unmeetable budget, want 0", got)
	}
}

// TestRepairerRespectsStorage is Eq. 4 on the live repairer: 3 servers with
// storage for 2 copies each, v0 and v1 on {s0, s1}, v2 on s2. Crashing s1
// starts two copies, both onto s2, which has room for one. The first lands;
// the second aborts for lack of storage, as the simulator's repairer does
// from the same state, and s2 ends at its capacity.
func TestRepairerRespectsStorage(t *testing.T) {
	c := core.Catalog{
		{ID: 0, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 40 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}

	srv := repairServer(t, p, l, 1e5, 0)
	rep := srv.Repairer()
	defer srv.Shutdown()
	if _, _, err := srv.FailBackend(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "both copies to settle", func() bool {
		return rep.Started() == 2 && rep.Inflight() == 0
	})
	if got, want := [3]int64{rep.Started(), rep.Completed(), rep.Aborted()}, [3]int64{2, 1, 1}; got != want {
		t.Fatalf("started/completed/aborted = %v, want %v", got, want)
	}
	cl := srv.Cluster()
	held := 0
	for v := 0; v < cl.Videos(); v++ {
		if holds(cl, v, 2) {
			held++
		}
	}
	if held != 2 || cl.StorageFree(2) < -1e-6 {
		t.Fatalf("s2 holds %d copies with %g bytes free, want 2 copies within its storage", held, cl.StorageFree(2))
	}
	var abort *RepairAction
	for _, a := range rep.Journal() {
		if a.Action == "abort" {
			abort = &a
		}
	}
	if abort == nil || abort.Dst != 2 || !strings.Contains(abort.Detail, "storage") {
		t.Fatalf("journal %+v has no storage abort onto s2", rep.Journal())
	}

	// The simulator's repairer, from the same state, agrees.
	st, err := cluster.New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := resilience.NewRepairer(p, resilience.Policy{Repair: true, RepairRate: 20 * core.Mbps}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(1)
	var landings []func(float64)
	sr.Tick(0, st, func(_ float64, fn func(float64)) { landings = append(landings, fn) })
	for _, fn := range landings {
		fn(0)
	}
	if got := [3]int{sr.Started(), sr.Completed(), sr.Aborted()}; got != [3]int{2, 1, 1} {
		t.Fatalf("simulator started/completed/aborted = %v, want [2 1 1]", got)
	}
}

// TestNewResiliencePolicy: the daemon always fails over and cannot degrade,
// so New refuses a policy that asks otherwise, naming the field, and
// refuses invalid tunables through the shared validation.
func TestNewResiliencePolicy(t *testing.T) {
	for _, tc := range []struct {
		pol  resilience.Policy
		want string
	}{
		{resilience.Policy{Repair: true}, "Failover"},
		{resilience.Policy{Failover: true, Degrade: true}, "Degrade"},
		{resilience.Policy{Failover: true, Repair: true, RepairBudget: -1}, "budget"},
		{resilience.Policy{Failover: true, Retry: true, RetryJitter: 2}, "jitter"},
	} {
		srv, err := New(testProblem(t, 0), testLayout(t), Config{Resilience: &tc.pol})
		if err == nil {
			srv.Shutdown()
			t.Fatalf("policy %+v accepted", tc.pol)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("policy %+v: error %q does not name %s", tc.pol, err, tc.want)
		}
	}
	srv, err := New(testProblem(t, 0), testLayout(t), Config{Resilience: &resilience.Policy{Failover: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if srv.Repairer() != nil || srv.retry != nil {
		t.Fatal("failover-only policy started retry or repair")
	}
}

// retryPolicy is failover plus retry at a constant base-second backoff.
func retryPolicy(base, patience float64, limit int) *resilience.Policy {
	return &resilience.Policy{Failover: true, Retry: true, RetryBase: base, RetryFactor: 1, RetryPatience: patience, RetryLimit: limit}
}

// TestOpenRetrySuccess: a capacity-rejected request waits in the retry queue
// and converts to an acceptance when a slot frees — with exactly one settled
// decision recorded for the whole attempt chain.
func TestOpenRetrySuccess(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{
		Compress:   1000,
		Resilience: retryPolicy(1, 300, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ctx := context.Background()

	if _, _, err := srv.OpenRetry(ctx, 99); err == nil {
		t.Fatal("retry admitted an out-of-catalog video")
	}

	// v1 lives only on s0: two sessions saturate it.
	first, outcome, err := srv.Open(1)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if _, outcome, err = srv.Open(1); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}

	type result struct {
		outcome Outcome
		err     error
	}
	done := make(chan result, 1)
	go func() {
		_, o, err := srv.OpenRetry(ctx, 1)
		done <- result{o, err}
	}()
	waitUntil(t, 2*time.Second, "request to enter the retry queue", func() bool {
		pending, _ := srv.RetryPending()
		return pending == 1
	})
	if !srv.Close(first.ID) {
		t.Fatal("close failed")
	}
	res := <-done
	if res.err != nil || res.outcome != OutcomeAccepted {
		t.Fatalf("retried request: outcome %q, err %v, want accepted", res.outcome, res.err)
	}
	m := srv.Metrics()
	if got := m.retried.Load(); got < 1 {
		t.Fatalf("retries = %d, want at least 1", got)
	}
	if got := m.Accepted(); got != 3 {
		t.Fatalf("accepted = %d, want 3", got)
	}
	if got := m.Requests(); got != 3 {
		t.Fatalf("settled decisions = %d, want 3 — retries must not inflate the counters", got)
	}
}

// TestOpenRetryRenege: with nothing ever freeing, the request backs off
// until its patience runs out and settles as exactly one rejection.
func TestOpenRetryRenege(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{
		Compress:   1e4,
		Resilience: retryPolicy(1, 10, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 2; i++ {
		if _, outcome, err := srv.Open(1); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %q, err %v", i, outcome, err)
		}
	}
	_, outcome, err := srv.OpenRetry(context.Background(), 1)
	if err != nil || outcome != OutcomeRejected {
		t.Fatalf("starved retry: outcome %q, err %v, want rejected", outcome, err)
	}
	m := srv.Metrics()
	if got := m.reneged.Load(); got != 1 {
		t.Fatalf("reneges = %d, want 1", got)
	}
	if got := m.retried.Load(); got < 1 {
		t.Fatalf("retries = %d, want at least 1 before reneging", got)
	}
	if got := m.Requests(); got != 3 {
		t.Fatalf("settled decisions = %d, want 3", got)
	}
}

// TestOpenRetryQueueFull: the bounded queue rejects overflow immediately
// (no renege — the request never waited), and a canceled waiter reneges.
func TestOpenRetryQueueFull(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{
		Compress:   1000,
		Resilience: retryPolicy(1, 1e5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	for i := 0; i < 2; i++ {
		if _, outcome, err := srv.Open(1); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %q, err %v", i, outcome, err)
		}
	}
	waiterCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan Outcome, 1)
	go func() {
		_, o, _ := srv.OpenRetry(waiterCtx, 1)
		done <- o
	}()
	waitUntil(t, 2*time.Second, "waiter to fill the queue", func() bool {
		pending, _ := srv.RetryPending()
		return pending == 1
	})

	_, outcome, err := srv.OpenRetry(context.Background(), 1)
	if err != nil || outcome != OutcomeRejected {
		t.Fatalf("overflow request: outcome %q, err %v, want immediate rejection", outcome, err)
	}
	m := srv.Metrics()
	if got := m.reneged.Load(); got != 0 {
		t.Fatalf("reneges = %d after a queue-full rejection, want 0", got)
	}

	cancel()
	if o := <-done; o != OutcomeRejected {
		t.Fatalf("canceled waiter: outcome %q, want rejected", o)
	}
	if got := m.reneged.Load(); got != 1 {
		t.Fatalf("reneges = %d after cancellation, want 1", got)
	}
	if _, peak := srv.RetryPending(); peak != 1 {
		t.Fatalf("peak queue depth = %d, want 1", peak)
	}
	if got := m.Requests(); got != 4 {
		t.Fatalf("settled decisions = %d, want 4", got)
	}
}

// TestRenderFailureFamilies: the failure-handling counters and the
// per-backend state gauge render in the exposition with the documented
// names, labels, and state encoding.
func TestRenderFailureFamilies(t *testing.T) {
	srv, err := New(testProblem(t, 0), testLayout(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if _, outcome, err := srv.Open(0); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %q, err %v", outcome, err)
	}
	if _, _, err := srv.FailBackend(0); err != nil { // fails the session over to s1
		t.Fatal(err)
	}
	m := srv.Metrics()
	m.Probe(true)
	m.Probe(false)
	m.Retried()
	m.Reneged()
	m.ReReplicated()

	var sb strings.Builder
	m.Render(&sb, srv.Cluster(), srv.Active(), srv.PolicyName())
	out := sb.String()
	for sample, want := range map[string]float64{
		`vod_failovers_total`:                        1,
		`vod_backend_failures_total`:                 1,
		`vod_retries_total`:                          1,
		`vod_reneges_total`:                          1,
		`vod_rereplications_total`:                   1,
		`vod_health_probes_total{result="ok"}`:       1,
		`vod_health_probes_total{result="fail"}`:     1,
		`vod_backend_state{server="0",state="down"}`: 4,
		`vod_backend_state{server="1",state="up"}`:   0,
	} {
		if got := promValue(t, out, sample); got != want {
			t.Fatalf("%s = %g, want %g", sample, got, want)
		}
	}
}
