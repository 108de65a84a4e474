package cluster

import (
	"math"
	"testing"

	"vodcluster/internal/core"
)

// testProblem: 3 videos, 2 servers, 10 Mb/s links, 4 Mb/s videos — each
// server carries at most 2 concurrent streams.
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

// testLayout: v0 on both, v1 on s0, v2 on s1.
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

func newState(t testing.TB, backbone float64) *State {
	t.Helper()
	st, err := New(testProblem(t, backbone), testLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewRejectsInvalidLayout(t *testing.T) {
	p := testProblem(t, 0)
	bad := core.NewLayout(3) // no placements at all
	if _, err := New(p, bad); err == nil {
		t.Fatal("invalid layout accepted")
	}
	// Per-copy rates whose sizes overfill server 0 (Eq. 4).
	over := testLayout(t)
	over.Rates = [][]float64{{50 * core.Mbps, 2 * core.Mbps}, {50 * core.Mbps}, {2 * core.Mbps}}
	if _, err := New(p, over); err == nil {
		t.Fatal("oversized per-copy rates accepted")
	}
}

func TestAdmitChargesAndReleaseFrees(t *testing.T) {
	st := newState(t, 0)
	id, ok := st.Admit(1, StaticRoundRobin{})
	if !ok {
		t.Fatal("admission of first stream failed")
	}
	if got := st.UsedBandwidth(0); math.Abs(got-4*core.Mbps) > 1 {
		t.Fatalf("server 0 used bw = %g", got)
	}
	if st.ActiveStreams(0) != 1 || st.TotalActive() != 1 {
		t.Fatal("stream accounting wrong")
	}
	s, ok := st.Lookup(id)
	if !ok || s.Video != 1 || s.Server != 0 || s.Redirected {
		t.Fatalf("stream record %+v", s)
	}
	if err := st.Release(id); err != nil {
		t.Fatal(err)
	}
	if st.UsedBandwidth(0) != 0 || st.TotalActive() != 0 {
		t.Fatal("release did not free resources")
	}
	if err := st.Release(id); err == nil {
		t.Fatal("double release accepted")
	}
	if _, ok := st.Lookup(id); ok {
		t.Fatal("released stream still visible")
	}
}

func TestStaticRoundRobinRotation(t *testing.T) {
	st := newState(t, 0)
	// Video 0 has replicas on servers 0 and 1; the cursor must alternate.
	first, ok := st.Admit(0, StaticRoundRobin{})
	if !ok {
		t.Fatal("admit failed")
	}
	second, ok := st.Admit(0, StaticRoundRobin{})
	if !ok {
		t.Fatal("admit failed")
	}
	s1, _ := st.Lookup(first)
	s2, _ := st.Lookup(second)
	if s1.Server == s2.Server {
		t.Fatalf("static RR did not rotate: %d, %d", s1.Server, s2.Server)
	}
	third, ok := st.Admit(0, StaticRoundRobin{})
	if !ok {
		t.Fatal("admit failed")
	}
	s3, _ := st.Lookup(third)
	if s3.Server != s1.Server {
		t.Fatal("rotation should wrap to the first holder")
	}
}

func TestStaticRoundRobinRejectsWhenDesignatedBusy(t *testing.T) {
	st := newState(t, 0)
	// Fill server 0 (capacity 2 streams at 4 of 10 Mb/s: 2 streams = 8, a
	// third needs 12 > 10).
	if _, ok := st.Admit(1, StaticRoundRobin{}); !ok { // v1 only on s0
		t.Fatal("admit 1 failed")
	}
	if _, ok := st.Admit(1, StaticRoundRobin{}); !ok {
		t.Fatal("admit 2 failed")
	}
	// Server 0 now has 8 Mb/s used; one more 4 Mb/s stream does not fit.
	if _, ok := st.Admit(1, StaticRoundRobin{}); ok {
		t.Fatal("overloaded server accepted a stream")
	}
	// Static RR for v0: cursor starts at holder index 0 = server 0 (full),
	// so the request is rejected even though server 1 has room.
	if _, ok := st.Admit(0, StaticRoundRobin{}); ok {
		t.Fatal("static RR must reject when the designated server is full")
	}
	// The rotation advanced, so the next request lands on server 1 and is
	// accepted.
	if _, ok := st.Admit(0, StaticRoundRobin{}); !ok {
		t.Fatal("rotation should reach the free holder")
	}
}

func TestFirstAvailableRetries(t *testing.T) {
	st := newState(t, 0)
	for i := 0; i < 2; i++ {
		if _, ok := st.Admit(1, FirstAvailable{}); !ok {
			t.Fatal("admit failed")
		}
	}
	// Server 0 full. FirstAvailable for v0 must fall through to server 1.
	id, ok := st.Admit(0, FirstAvailable{})
	if !ok {
		t.Fatal("first-available failed to retry")
	}
	s, _ := st.Lookup(id)
	if s.Server != 1 {
		t.Fatalf("expected server 1, got %d", s.Server)
	}
}

func TestLeastLoadedPicksFreest(t *testing.T) {
	st := newState(t, 0)
	if _, ok := st.Admit(1, LeastLoaded{}); !ok { // s0 busier now
		t.Fatal("admit failed")
	}
	id, ok := st.Admit(0, LeastLoaded{})
	if !ok {
		t.Fatal("admit failed")
	}
	s, _ := st.Lookup(id)
	if s.Server != 1 {
		t.Fatalf("least-loaded picked %d, want 1", s.Server)
	}
}

func TestLeastLoadedRejectsWhenAllFull(t *testing.T) {
	st := newState(t, 0)
	for i := 0; i < 4; i++ { // 2 per server via v0's two replicas
		if _, ok := st.Admit(0, LeastLoaded{}); !ok {
			t.Fatalf("admit %d failed", i)
		}
	}
	if _, ok := st.Admit(0, LeastLoaded{}); ok {
		t.Fatal("saturated cluster accepted a stream")
	}
}

func TestCanServeBoundary(t *testing.T) {
	st := newState(t, 0)
	if !st.CanServe(0, 0) {
		t.Fatal("empty server cannot serve?")
	}
	for i := 0; i < 2; i++ {
		if _, ok := st.Admit(1, StaticRoundRobin{}); !ok {
			t.Fatal("admit failed")
		}
	}
	if st.CanServe(0, 0) {
		t.Fatal("full server claims capacity")
	}
	if got := st.FreeBandwidth(0); math.Abs(got-2*core.Mbps) > 1 {
		t.Fatalf("free bw = %g, want 2 Mb/s", got)
	}
}

func TestRedirectedStreamChargesBackbone(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	// Build a redirected decision manually: serve v1 (held by s0) out of s1.
	d := Decision{Accept: true, Server: 1, Source: 0}
	rate := 4 * core.Mbps
	id, ok := st.Admit(1, fixedScheduler{d})
	if !ok {
		t.Fatal("redirected admission failed")
	}
	s, _ := st.Lookup(id)
	if !s.Redirected {
		t.Fatal("stream not marked redirected")
	}
	if got := st.BackboneFree(); math.Abs(got-(8*core.Mbps-rate)) > 1 {
		t.Fatalf("backbone free = %g", got)
	}
	if st.UsedBandwidth(1) != rate {
		t.Fatal("proxy server not charged")
	}
	if st.UsedBandwidth(0) != 0 {
		t.Fatal("source server wrongly charged outgoing bandwidth")
	}
	if err := st.Release(id); err != nil {
		t.Fatal(err)
	}
	if st.BackboneFree() != 8*core.Mbps {
		t.Fatal("backbone not freed on release")
	}
}

func TestRedirectedAdmissionFailsWithoutBackbone(t *testing.T) {
	st := newState(t, 2*core.Mbps) // backbone smaller than one stream
	d := Decision{Accept: true, Server: 1, Source: 0}
	if _, ok := st.Admit(1, fixedScheduler{d}); ok {
		t.Fatal("redirection admitted past backbone capacity")
	}
}

func TestAdmitDefendsAgainstLyingScheduler(t *testing.T) {
	st := newState(t, 0)
	for i := 0; i < 2; i++ {
		if _, ok := st.Admit(1, StaticRoundRobin{}); !ok {
			t.Fatal("admit failed")
		}
	}
	// Scheduler promises server 0 although it is full.
	if _, ok := st.Admit(1, fixedScheduler{Direct(0)}); ok {
		t.Fatal("Admit believed a scheduler promising a full server")
	}
}

func TestHoldersAndAccessors(t *testing.T) {
	st := newState(t, 0)
	if got := st.Holders(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("holders of v0 = %v", got)
	}
	if st.Problem() == nil || st.Layout() == nil {
		t.Fatal("accessors returned nil")
	}
	bw := st.UsedBandwidths()
	bw[0] = 123
	if st.UsedBandwidth(0) == 123 {
		t.Fatal("UsedBandwidths exposed internal state")
	}
}

func TestSchedulerNames(t *testing.T) {
	if (StaticRoundRobin{}).Name() != "static-rr" ||
		(FirstAvailable{}).Name() != "first-available" ||
		(LeastLoaded{}).Name() != "least-loaded" {
		t.Fatal("scheduler names changed")
	}
}

// fixedScheduler returns a canned decision; used to drive Admit directly.
type fixedScheduler struct{ d Decision }

func (f fixedScheduler) Schedule(*State, int) Decision { return f.d }
func (f fixedScheduler) Name() string                  { return "fixed" }
