package serve

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vodcluster/internal/core"
	"vodcluster/internal/policy"
)

// shardProblem: 8 videos on 8 servers, 4 Mb/s streams on 20 Mb/s links —
// 5 concurrent streams per backend — big enough that Config{Shards: 4}
// yields four registry partitions with sessions of every video in each.
func shardProblem(t testing.TB) *core.Problem {
	t.Helper()
	cat := make(core.Catalog, 8)
	for i := range cat {
		cat[i] = core.Video{ID: i, Popularity: 1.0 / 8, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute}
	}
	p := &core.Problem{
		Catalog:            cat,
		NumServers:         8,
		StoragePerServer:   6 * cat[0].SizeBytes(), // slack for landed copies
		BandwidthPerServer: 20 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// shardLayout places video v on servers v and (v+4) mod 8, so every video
// has a failover target and every least-loaded choice a rival holder.
func shardLayout(t testing.TB) *core.Layout {
	t.Helper()
	l := core.NewLayout(8)
	for v := 0; v < 8; v++ {
		for _, s := range []int{v % 8, (v + 4) % 8} {
			if err := l.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

func newShardedServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(shardProblem(t), shardLayout(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}

// assertNoLeaks fails when any backend still carries bandwidth or stream
// accounting after every session has been settled.
func assertNoLeaks(t *testing.T, srv *Server) {
	t.Helper()
	c := srv.Cluster()
	for b := 0; b < c.Servers(); b++ {
		if u := c.Used(b); u != 0 {
			t.Errorf("server %d leaks %d bit/s after settlement", b, u)
		}
		if a := c.Active(b); a != 0 {
			t.Errorf("server %d leaks %d active streams after settlement", b, a)
		}
	}
	if a := srv.Active(); a != 0 {
		t.Errorf("Active() = %d after settlement, want 0", a)
	}
}

func TestShardedConfigResolution(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	if srv.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", srv.Shards())
	}
	if got := srv.PolicyName(); got != "least-loaded" {
		t.Fatalf("PolicyName() = %q, want least-loaded", got)
	}

	if single := newShardedServer(t, Config{}); single.Shards() != 1 {
		t.Fatalf("default config runs %d partitions, want 1", single.Shards())
	}

	clamped := newShardedServer(t, Config{Shards: 100})
	if clamped.Shards() != 8 {
		t.Fatalf("Shards: 100 on 8 servers clamped to %d, want 8", clamped.Shards())
	}
}

// TestShardedAcceptsEveryPolicy: every advertised policy, with and without
// backbone redirection, builds a Server and admits at one partition and at
// four; an unknown name still fails.
func TestShardedAcceptsEveryPolicy(t *testing.T) {
	for _, backbone := range []float64{0, 100 * core.Mbps} {
		p := shardProblem(t)
		p.BackboneBandwidth = backbone
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, name := range policy.Names() {
			for _, shards := range []int{1, 4} {
				srv, err := New(p, shardLayout(t), Config{Shards: shards, Policy: name})
				if err != nil {
					t.Fatalf("backbone %g, policy %q, %d shards: %v", backbone, name, shards, err)
				}
				info, outcome, err := srv.Open(0)
				if err != nil || outcome != OutcomeAccepted {
					t.Errorf("backbone %g, policy %q, %d shards: outcome %v err %v", backbone, name, shards, outcome, err)
				} else if !srv.Close(info.ID) {
					t.Errorf("backbone %g, policy %q, %d shards: Close found no session", backbone, name, shards)
				}
				srv.Shutdown()
				assertNoLeaks(t, srv)
			}
		}
	}
	if _, err := New(shardProblem(t), shardLayout(t), Config{Shards: 4, Policy: "no-such-policy"}); err == nil {
		t.Fatal("an unknown policy was accepted")
	}
}

// TestShardedAdmitSaturateAndClose: partitioned admission fills video 0's two
// replicas to their link capacity (5 streams each), rejects the next
// request, and returns the accounting to zero when every session closes.
func TestShardedAdmitSaturateAndClose(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4}) // real time: sessions outlive the test
	var ids []int64
	for {
		info, outcome, err := srv.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != OutcomeAccepted {
			break
		}
		ids = append(ids, info.ID)
	}
	if len(ids) != 10 {
		t.Fatalf("admitted %d sessions of video 0, want 10 (2 replicas × 5 slots)", len(ids))
	}
	if got := srv.Active(); got != 10 {
		t.Fatalf("Active() = %d, want 10", got)
	}
	for _, id := range ids {
		if !srv.Close(id) {
			t.Fatalf("Close(%d) found no session", id)
		}
	}
	for _, id := range ids {
		if srv.Close(id) {
			t.Fatalf("Close(%d) settled twice", id)
		}
	}
	assertNoLeaks(t, srv)
}

// TestShardedExpiryAndDrain: with aggressive time compression the partition
// expiry heap settles sessions at their natural deadlines, and Drain returns
// once the registry is empty.
func TestShardedExpiryAndDrain(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4, Compress: 1e5}) // 5400s video ≈ 54ms wall
	var ids []int64
	for v := 0; v < 8; v++ {
		info, outcome, err := srv.Open(v)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open video %d: outcome %v err %v", v, outcome, err)
		}
		ids = append(ids, info.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		if srv.Close(id) {
			t.Fatalf("session %d still registered after its natural expiry", id)
		}
	}
	assertNoLeaks(t, srv)
}

// strandedSessions describes every live session whose grant streams its
// video from a server that no longer holds a replica of it.
func strandedSessions(srv *Server) []string {
	var bad []string
	for _, p := range srv.parts {
		p.mu.Lock()
		p.reg.each(func(sess *session) {
			if !holds(srv.c, sess.video, sess.grant.Source) {
				bad = append(bad, fmt.Sprintf("session %d streams video %d from non-holder %d",
					sess.id, sess.video, sess.grant.Source))
			}
		})
		p.mu.Unlock()
	}
	return bad
}

// TestExpiryHeapCompaction: sessions closed long before their deadline do
// not pile up in the expiry heap, and the entries of live sessions survive
// every compaction and still end them at their deadlines.
func TestExpiryHeapCompaction(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 1, Compress: 5400}) // 5400 s video = 1 s wall
	p := srv.parts[0]
	kept := 0
	for i := 0; i < 20*compactSlack; i++ {
		info, outcome, err := srv.Open(i % 8)
		if err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %v err %v", i, outcome, err)
		}
		if i%2001 == 0 { // 2001 mod 8 = 1: kept sessions walk the catalog
			kept++
			continue
		}
		srv.Close(info.ID)
	}
	p.mu.Lock()
	n, live := len(p.exp), p.reg.n
	p.mu.Unlock()
	if n >= 2*live+compactSlack {
		t.Fatalf("expiry heap holds %d entries for %d live sessions", n, live)
	}
	m := srv.Metrics()
	waitUntil(t, 5*time.Second, "kept sessions to expire", func() bool { return m.totals().completed == int64(kept) })
	assertNoLeaks(t, srv)
}

// TestExpiryHeapOrder: pushes and a heapify of an arbitrary slice both pop
// in deadline order.
func TestExpiryHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	base := int64(time.Hour)
	var pushed, raw expiryHeap
	for i := 0; i < 500; i++ {
		e := expiry{at: base + int64(time.Duration(rng.IntN(1000))*time.Millisecond), id: int64(i)}
		pushed.push(e)
		raw = append(raw, e)
	}
	raw.heapify()
	for _, h := range []*expiryHeap{&pushed, &raw} {
		prev := base
		for len(*h) > 0 {
			e := h.popMin()
			if e.at < prev {
				t.Fatalf("popped %v after %v", time.Duration(e.at-base), time.Duration(prev-base))
			}
			prev = e.at
		}
	}
}

// evictingPolicy wraps a policy and, once, removes the holder it just
// reserved on from the directory: the interleaving of an EvictReplica that
// lands between a decision and its registry commit, made deterministic.
type evictingPolicy struct {
	Policy
	c               *Cluster
	admit, failover bool // which call still evicts its pick
}

func (p *evictingPolicy) Admit(v int) (Grant, bool) {
	g, ok := p.Policy.Admit(v)
	if ok && p.admit {
		p.admit = false
		p.c.RemoveHolder(v, g.Source)
	}
	return g, ok
}

func (p *evictingPolicy) Failover(v, exclude int) (Grant, bool) {
	g, ok := p.Policy.Failover(v, exclude)
	if ok && p.failover {
		p.failover = false
		p.c.RemoveHolder(v, g.Source)
	}
	return g, ok
}

// TestAdmissionRedecidesOnEvictedSource: an admission whose source loses
// its replica before the registry insert gives the reservation back
// uncounted and is decided again onto the surviving holder.
func TestAdmissionRedecidesOnEvictedSource(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	srv.pol = &evictingPolicy{Policy: srv.pol, c: srv.c, admit: true}
	info, outcome, err := srv.Open(0)
	if err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %v err %v", outcome, err)
	}
	if !holds(srv.c, 0, info.Source) {
		t.Fatalf("session streams video 0 from non-holder %d", info.Source)
	}
	if got := srv.Metrics().Requests(); got != 1 {
		t.Fatalf("requests = %d, want 1: the abandoned first decision must not count", got)
	}
	if !srv.Close(info.ID) {
		t.Fatal("Close found no session")
	}
	assertNoLeaks(t, srv)
}

// TestFailoverDropsOnEvictedTarget: a failover whose target loses its
// replica before the grant swap drops the session instead of streaming
// from a copy that no longer exists.
func TestFailoverDropsOnEvictedTarget(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	srv.pol = &evictingPolicy{Policy: srv.pol, c: srv.c, failover: true}
	if _, outcome, err := srv.Open(3); err != nil || outcome != OutcomeAccepted {
		t.Fatalf("open: outcome %v err %v", outcome, err)
	}
	failedOver, dropped, err := srv.DrainBackend(3)
	if err != nil {
		t.Fatal(err)
	}
	if failedOver != 0 || dropped != 1 {
		t.Fatalf("drain: failedOver=%d dropped=%d, want 0,1", failedOver, dropped)
	}
	assertNoLeaks(t, srv)
}

// TestShardedAdmissionsRaceRebalance is the partition-boundary race drill
// the CI race job runs: admissions and closes race rebalancer LandReplica /
// EvictReplica calls targeting servers in every partition. The invariants:
// no operation deadlocks, a video never loses its last replica, pinned
// replicas survive, every live session's source holds its video once the
// rebalancer stops, and after all sessions settle the accounting is exactly
// zero.
func TestShardedAdmissionsRaceRebalance(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	const workers = 8
	var stop atomic.Bool
	var opening, wg sync.WaitGroup
	settle := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		opening.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			v := w % 8
			for !stop.Load() {
				info, outcome, err := srv.Open(v)
				if err != nil {
					t.Errorf("open: %v", err)
					break
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if len(open) > 3 {
					srv.Close(open[0])
					open = open[1:]
				}
				v = (v + 1) % 8
			}
			opening.Done()
			<-settle
			for _, id := range open {
				srv.Close(id)
			}
		}(w)
	}

	// The rebalancer thread lands a third replica and evicts it again, on a
	// server two partitions away from the video's birth replicas.
	var reb sync.WaitGroup
	reb.Add(1)
	go func() {
		defer reb.Done()
		for i := 0; !stop.Load(); i++ {
			v := i % 8
			b := (v + 2) % 8
			if err := srv.LandReplica(v, b); err != nil {
				continue // already holds it from a prior round: evict below
			}
			for srv.EvictReplica(v, b) == ErrReplicaPinned && !stop.Load() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	reb.Wait()
	opening.Wait()
	for _, bad := range strandedSessions(srv) {
		t.Error(bad)
	}
	close(settle)
	wg.Wait()

	c := srv.Cluster()
	for v := 0; v < 8; v++ {
		if n := len(c.Holders(v)); n < 2 {
			t.Errorf("video %d ended with %d replicas, want ≥ 2", v, n)
		}
	}
	assertNoLeaks(t, srv)
}

// TestShardedWholeShardDrain drains servers 0 and 1 while admissions race
// from other goroutines: every session on them must fail over to its other
// replica or be dropped, the drained servers must end with zero accounting,
// and new admissions must keep flowing to the live servers throughout.
func TestShardedWholeShardDrain(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	c := srv.Cluster()

	// Pin sessions onto servers 0 and 1 by saturating their
	// videos: v0/v4 hold replicas on server 0, v1/v5 on server 1.
	var ids []int64
	for _, v := range []int{0, 4, 1, 5} {
		for i := 0; i < 3; i++ {
			info, outcome, err := srv.Open(v)
			if err != nil || outcome != OutcomeAccepted {
				t.Fatalf("open video %d: outcome %v err %v", v, outcome, err)
			}
			ids = append(ids, info.ID)
		}
	}
	before := srv.Active()

	// Workers on videos 4 and 5 land on the drained servers too, so their
	// sessions can be dropped as well: count what they open and close.
	var stop atomic.Bool
	var opened, closed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			closeOne := func(id int64) {
				if srv.Close(id) {
					closed.Add(1)
				}
			}
			for !stop.Load() {
				info, outcome, err := srv.Open((w + 2) % 8)
				if err != nil {
					t.Errorf("open during drain: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					opened.Add(1)
					open = append(open, info.ID)
				}
				if len(open) > 2 {
					closeOne(open[0])
					open = open[1:]
				}
			}
			for _, id := range open {
				closeOne(id)
			}
		}(w)
	}

	totalFailed, totalDropped := 0, 0
	for _, b := range []int{0, 1} {
		fo, dr, err := srv.DrainBackend(b)
		if err != nil {
			t.Fatalf("drain backend %d: %v", b, err)
		}
		totalFailed += fo
		totalDropped += dr
	}
	stop.Store(true)
	wg.Wait()

	if got := c.Used(0) + c.Used(1); got != 0 {
		t.Errorf("drained servers still carry %d bit/s", got)
	}
	if totalFailed+totalDropped == 0 {
		t.Error("draining two loaded servers moved nothing")
	}
	want := before + opened.Load() - closed.Load() - int64(totalDropped)
	if got := srv.Active(); got != want {
		t.Errorf("Active() = %d after drain, want %d pinned + %d opened - %d closed - %d dropped",
			got, before, opened.Load(), closed.Load(), totalDropped)
	}
	live := int64(0)
	for _, id := range ids {
		if srv.Close(id) {
			live++
		}
	}
	if live != want {
		t.Errorf("Close settled %d pinned sessions, want the %d still active", live, want)
	}
	assertNoLeaks(t, srv)
}

// TestShardedCrossShardFailover crashes a backend while admissions race: the
// eviction scan collects sessions from every registry partition, fails them
// over, and the survivors stay closable exactly once.
func TestShardedCrossShardFailover(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var open []int64
			for !stop.Load() {
				info, outcome, err := srv.Open(w % 8)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if outcome == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if len(open) > 4 {
					if srv.Close(open[0]) {
						open = open[1:]
					} else {
						t.Error("Close lost a session the evict scan should have settled")
						return
					}
				}
			}
			for _, id := range open {
				srv.Close(id)
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	if _, _, err := srv.FailBackend(3); err != nil {
		t.Fatalf("fail backend 3: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := srv.RecoverBackend(3); err != nil {
		t.Fatalf("recover backend 3: %v", err)
	}
	if err := srv.RestoreBackend(3); err != nil {
		t.Fatalf("restore backend 3: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	assertNoLeaks(t, srv)
}

// TestShardedRepairLanding: a repair landing publishes the first copy and
// refuses the duplicate.
func TestShardedRepairLanding(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4})
	if !srv.landRepair(0, 2) {
		t.Fatal("repair landing of a new replica refused")
	}
	if srv.landRepair(0, 2) {
		t.Fatal("duplicate repair landing accepted")
	}
	if !holds(srv.Cluster(), 0, 2) {
		t.Fatal("landed repair copy missing from the directory")
	}
}

// TestShardedFailoverThenExpiry: a failover swaps the grant in place and
// leaves the session's deadline alone, so the heap entry pushed at admission
// is the only thing that ends a failed-over session. Every survivor of a
// crash must still complete at its natural expiry — none canceled, nothing
// left on any link.
func TestShardedFailoverThenExpiry(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4, Compress: 3.6e4}) // 5400 s video = 150 ms wall
	// Videos 3 and 7 both live on servers 3 and 7 (5 slots each): six
	// sessions split across the pair, so crashing 3 fails some over to 7.
	const opened = 6
	for i := 0; i < opened; i++ {
		if _, outcome, err := srv.Open(3 + 4*(i%2)); err != nil || outcome != OutcomeAccepted {
			t.Fatalf("open %d: outcome %v err %v", i, outcome, err)
		}
	}
	failedOver, dropped, err := srv.FailBackend(3)
	if err != nil {
		t.Fatalf("fail backend 3: %v", err)
	}
	if failedOver == 0 {
		t.Fatalf("crash failed nothing over (dropped %d); the test needs a failed-over survivor", dropped)
	}
	m := srv.Metrics()
	survivors := int64(opened - dropped)
	waitUntil(t, 5*time.Second, "survivors to expire", func() bool { return m.totals().completed == survivors })
	if got := m.totals().canceled; got != 0 {
		t.Errorf("canceled = %d, want 0: every survivor ends by natural expiry", got)
	}
	if got := m.dropped.Load(); got != int64(dropped) {
		t.Errorf("dropped metric = %d, FailBackend reported %d", got, dropped)
	}
	assertNoLeaks(t, srv)
}

// TestShardedFailoverTargetDrained races the eviction scan against its own
// failover target: video 3 lives on servers 3 and 7, the test drains 3 round
// after round while a second goroutine drains and restores 7, so a target
// regularly turns ineligible between the scan's reservation and its commit.
// Whichever way each race falls, every opened session settles exactly once:
// Close finds exactly the sessions no scan dropped, and nothing leaks.
func TestShardedFailoverTargetDrained(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 4}) // real time: no session expires
	var stop atomic.Bool
	var togglerDropped int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, dr, err := srv.DrainBackend(7)
			if err != nil {
				t.Errorf("drain backend 7: %v", err)
				return
			}
			togglerDropped += dr
			if err := srv.RestoreBackend(7); err != nil {
				t.Errorf("restore backend 7: %v", err)
				return
			}
		}
	}()

	opened, closed, dropped := 0, 0, 0
	for round := 0; round < 1000; round++ {
		var ids []int64
		for i := 0; i < 6; i++ {
			info, outcome, err := srv.Open(3)
			if err != nil {
				t.Fatalf("round %d open: %v", round, err)
			}
			if outcome == OutcomeAccepted {
				ids = append(ids, info.ID)
			}
		}
		opened += len(ids)
		_, dr, err := srv.DrainBackend(3)
		if err != nil {
			t.Fatalf("round %d drain backend 3: %v", round, err)
		}
		dropped += dr
		if err := srv.RestoreBackend(3); err != nil {
			t.Fatalf("round %d restore backend 3: %v", round, err)
		}
		for _, id := range ids {
			if srv.Close(id) {
				closed++
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	dropped += togglerDropped

	if opened == 0 {
		t.Fatal("no session was ever admitted")
	}
	if closed+dropped != opened {
		t.Errorf("opened %d sessions, Close settled %d and the scans dropped %d: %d settled zero or multiple times",
			opened, closed, dropped, opened-closed-dropped)
	}
	m := srv.Metrics()
	if got := m.totals().canceled; got != int64(closed) {
		t.Errorf("canceled metric = %d, Close settled %d", got, closed)
	}
	if got := m.dropped.Load(); got != int64(dropped) {
		t.Errorf("dropped metric = %d, the scans reported %d", got, dropped)
	}
	assertNoLeaks(t, srv)
}

// BenchmarkRegistryInsertSettle is the registry's own cost per decision:
// one session inserted into its partition's index and expiry heap, then
// settled by id, over a backlog of live sessions the size of a loaded
// daemon's, with the heap compactions that closed sessions' stale entries
// cause. Grants are zero-rate, so the one compare-and-swap reservation per
// operation never fails and the cluster holds any backlog. The partitions
// take turns round-robin, as the homes of a caller without a connection do.
func BenchmarkRegistryInsertSettle(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("partitions=%d", k), func(b *testing.B) {
			srv := newShardedServer(b, Config{Shards: k})
			far := srv.nowNS() + int64(time.Hour)
			grant := func(i int) Grant {
				v := i % 8
				srv.c.TryReserve(v, 0)
				return Grant{Video: v, Server: v, Source: v}
			}
			for i := 0; i < 4096; i++ { // the live backlog
				srv.nextHome().insert(grant(i), far)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := srv.nextHome()
				id, res := p.insert(grant(i), far)
				if res != inserted || !p.settle(id, false) {
					b.Fatalf("session %d did not insert and settle", id)
				}
			}
		})
	}
}

// TestIngressTotalsUnderConcurrency: four connections open, batch and close
// concurrently through a real ingress over four partitions while short
// sessions also expire on their own, then go quiet. The per-partition and
// per-connection telemetry must then sum to what the clients saw: every
// decision once in vod_requests_total and in the latency histogram, every
// accepted session ended once, every request once in vod_http_requests_total,
// nothing live and no bandwidth held. Every id is unique, a connection's ids
// all name its one home, and a checker running alongside finds every live
// session registered in the partition its id names.
func TestIngressTotalsUnderConcurrency(t *testing.T) {
	const conns, rounds = 4, 150
	// 90 minutes play in about a millisecond, so many sessions expire before
	// their close.
	srv := newShardedServer(t, Config{Shards: 4, Compress: 5e6})
	ing, err := NewIngress(srv, IngressConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ing.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	stop := make(chan struct{})
	checked := make(chan error, 1)
	go func() { // every live session sits in the partition its id names
		var bad error
		for {
			for _, p := range srv.parts {
				p.mu.Lock()
				p.reg.each(func(sess *session) {
					if bad == nil && srv.partOf(sess.id) != p {
						bad = fmt.Errorf("session %d is registered in partition %d but names %v", sess.id, p.idx, srv.partOf(sess.id))
					}
				})
				p.mu.Unlock()
			}
			select {
			case <-stop:
				checked <- bad
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var (
		wg                      sync.WaitGroup
		decided, accepted, reqs [conns]int64
		ids                     [conns][]int64
		errs                    [conns]error
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc, err := DialFast(addr.String())
			if err != nil {
				errs[c] = err
				return
			}
			defer fc.Close()
			var open []int64
			var res []OpenResult
			batch := []int{c, c + 1, c + 2, c + 3, 7 - c, 0}
			for i := 0; i < rounds; i++ {
				info, out, err := fc.Open((c + i) % 8)
				if err != nil {
					errs[c] = err
					return
				}
				reqs[c]++
				decided[c]++
				if out == OutcomeAccepted {
					open = append(open, info.ID)
				}
				if res, err = fc.OpenBatch(batch, res[:0]); err != nil {
					errs[c] = err
					return
				}
				reqs[c]++
				decided[c] += int64(len(batch))
				for _, r := range res {
					if r.Outcome == OutcomeAccepted {
						open = append(open, r.Info.ID)
					}
				}
				for len(open) > 6 { // close the oldest; an expired one answers 404
					if _, err := fc.CloseSession(open[0]); err != nil {
						errs[c] = err
						return
					}
					reqs[c]++
					accepted[c]++
					ids[c] = append(ids[c], open[0])
					open = open[1:]
				}
			}
			for _, id := range open {
				if _, err := fc.CloseSession(id); err != nil {
					errs[c] = err
					return
				}
				reqs[c]++
				accepted[c]++
				ids[c] = append(ids[c], id)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-checked; err != nil {
		t.Error(err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "every session to settle", func() bool { return srv.Active() == 0 })

	var sumDecided, sumAccepted, sumReqs int64
	seen := make(map[int64]bool)
	homes := make(map[*partition]bool)
	for c := 0; c < conns; c++ {
		sumDecided, sumAccepted, sumReqs = sumDecided+decided[c], sumAccepted+accepted[c], sumReqs+reqs[c]
		if len(ids[c]) == 0 {
			t.Fatalf("connection %d had no session accepted", c)
		}
		home := srv.partOf(ids[c][0])
		for _, id := range ids[c] {
			if seen[id] {
				t.Fatalf("session id %d handed out twice", id)
			}
			seen[id] = true
			if p := srv.partOf(id); p != home {
				t.Fatalf("connection %d's session %d names partition %v, its first named %v", c, id, p, home)
			}
		}
		homes[home] = true
	}
	if len(homes) != conns {
		t.Errorf("%d connections share %d home partitions, want one each", conns, len(homes))
	}

	var sb strings.Builder
	srv.Metrics().Render(&sb, srv.Cluster(), srv.Active(), srv.PolicyName())
	out := sb.String()
	acc := promValue(t, out, `vod_requests_total{outcome="accepted"}`)
	rej := promValue(t, out, `vod_requests_total{outcome="rejected"}`)
	if acc+rej != float64(sumDecided) {
		t.Errorf("vod_requests_total = %g accepted + %g rejected, the clients counted %d decisions", acc, rej, sumDecided)
	}
	if got := promValue(t, out, "vod_admission_latency_seconds_count"); got != float64(sumDecided) {
		t.Errorf("vod_admission_latency_seconds_count = %g, the clients counted %d decisions", got, sumDecided)
	}
	if acc != float64(sumAccepted) {
		t.Errorf("vod_requests_total accepted = %g, the clients were granted %d sessions", acc, sumAccepted)
	}
	ended := promValue(t, out, `vod_sessions_ended_total{cause="completed"}`) +
		promValue(t, out, `vod_sessions_ended_total{cause="canceled"}`)
	if ended != acc {
		t.Errorf("vod_sessions_ended_total completed + canceled = %g, accepted %g", ended, acc)
	}
	if got := promValue(t, out, `vod_http_requests_total{listener="0"}`); got != float64(sumReqs) {
		t.Errorf("vod_http_requests_total = %g, the clients sent %d requests", got, sumReqs)
	}
	if got := promValue(t, out, `vod_http_decisions_total{listener="0"}`); got != float64(sumDecided) {
		t.Errorf("vod_http_decisions_total = %g, the clients counted %d decisions", got, sumDecided)
	}
	t.Logf("%g accepted, %g rejected, %g completed", acc, rej, promValue(t, out, `vod_sessions_ended_total{cause="completed"}`))
	if got := promValue(t, out, "vod_sessions_active"); got != 0 {
		t.Errorf("vod_sessions_active = %g after everything settled", got)
	}
	assertNoLeaks(t, srv)
}

// TestLoneCallerIDsAscend: a caller without a connection gets its homes
// round-robin, one per admission, so at any partition count — three here,
// which leaves one of the two partition bits' values unused — its ids
// ascend in admission order across rejections and closes, as State.FailServer's
// tear order needs, and each names the partition its turn picked. An id
// whose partition bits name no partition closes nothing.
func TestLoneCallerIDsAscend(t *testing.T) {
	srv := newShardedServer(t, Config{Shards: 3})
	var last int64
	turn := 0
	for i := 0; i < 200; i++ {
		info, outcome, err := srv.Open(i % 8)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != OutcomeAccepted {
			continue
		}
		if info.ID <= last {
			t.Fatalf("admission %d got id %d after %d", i, info.ID, last)
		}
		if p := srv.partOf(info.ID); p != srv.parts[turn%3] {
			t.Fatalf("id %d names partition %v, turn %d is partition %d", info.ID, p, turn, turn%3)
		}
		last = info.ID
		turn++
		if i%3 == 0 && !srv.Close(info.ID) {
			t.Fatalf("session %d did not close", info.ID)
		}
	}
	if turn == 0 || turn == 200 {
		t.Fatalf("%d of 200 admissions accepted; the test needs both outcomes", turn)
	}
	if srv.Close(1<<2 | 3) {
		t.Fatal("an id naming partition 3 of 3 closed a session")
	}
}
