package cluster

import (
	"testing"

	"vodcluster/internal/core"
)

func fillServer(t testing.TB, st *State, video, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := st.Admit(video, FirstAvailable{}); !ok {
			t.Fatalf("setup admission %d of video %d failed", i, video)
		}
	}
}

func TestPassThroughWhenBaseAccepts(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	sched := Redirecting{StaticRoundRobin{}}
	id, ok := st.Admit(1, sched)
	if !ok {
		t.Fatal("admission failed")
	}
	s, _ := st.Lookup(id)
	if s.Redirected {
		t.Fatal("base acceptance should not redirect")
	}
	if got, want := sched.Name(), "static-rr+redirect"; got != want {
		t.Fatalf("name = %q", got)
	}
}

func TestPrefersFreeHolderBeforeBackbone(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	sched := Redirecting{StaticRoundRobin{}}
	// Fill server 0; v0's static-RR cursor points at server 0 first.
	fillServer(t, st, 1, 2)
	id, ok := st.Admit(0, sched)
	if !ok {
		t.Fatal("admission failed")
	}
	s, _ := st.Lookup(id)
	if s.Redirected {
		t.Fatal("should have used the free holder (server 1) directly")
	}
	if s.Server != 1 {
		t.Fatalf("served by %d, want holder 1", s.Server)
	}
}

func TestRedirectsViaBackboneWhenHoldersFull(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	sched := Redirecting{StaticRoundRobin{}}
	// v1 is held only by server 0; fill server 0 completely.
	fillServer(t, st, 1, 2)
	// Server 1 has spare outgoing bandwidth: the request for v1 must be
	// proxied through it.
	id, ok := st.Admit(1, sched)
	if !ok {
		t.Fatal("redirection failed")
	}
	s, _ := st.Lookup(id)
	if !s.Redirected || s.Server != 1 || s.Source != 0 {
		t.Fatalf("stream %+v, want redirect 0→1", s)
	}
}

func TestRejectsWithoutBackbone(t *testing.T) {
	st := newState(t, 0)
	sched := Redirecting{StaticRoundRobin{}}
	fillServer(t, st, 1, 2)
	if _, ok := st.Admit(1, sched); ok {
		t.Fatal("redirected without backbone bandwidth")
	}
}

func TestRejectsWhenBackboneExhausted(t *testing.T) {
	st := newState(t, 4*core.Mbps) // room for exactly one redirected stream
	sched := Redirecting{StaticRoundRobin{}}
	fillServer(t, st, 1, 2)
	if _, ok := st.Admit(1, sched); !ok {
		t.Fatal("first redirection failed")
	}
	if _, ok := st.Admit(1, sched); ok {
		t.Fatal("second redirection exceeded backbone capacity")
	}
}

func TestRejectsWhenNoProxyHasRoom(t *testing.T) {
	st := newState(t, 100*core.Mbps)
	sched := Redirecting{StaticRoundRobin{}}
	// Fill both servers completely: 2 streams each.
	fillServer(t, st, 1, 2)
	fillServer(t, st, 2, 2)
	if _, ok := st.Admit(1, sched); ok {
		t.Fatal("redirected with no outgoing capacity anywhere")
	}
}

// newState3 is three servers on a 100 Mb/s backbone: v0 on s0, v1 on s0
// and s1, v2 on s2; two 4 Mb/s streams fill a link.
func newState3(t testing.TB) *State {
	t.Helper()
	p := testProblem(t, 100*core.Mbps)
	p.NumServers = 3
	l := core.NewLayout(3)
	l.Replicas = []int{1, 2, 1}
	for _, pl := range []struct{ v, s int }{{0, 0}, {1, 0}, {1, 1}, {2, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	st, err := New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRedirectSkipsDownServers: a failed server's emptied link never makes
// it the proxy, and a failed holder never sources the stream.
func TestRedirectSkipsDownServers(t *testing.T) {
	sched := Redirecting{LeastLoaded{}}

	// v0 only on s0, s0 full, s2 down: s1 is the only live proxy.
	st := newState3(t)
	fillServer(t, st, 0, 2)
	st.FailServer(2)
	id, ok := st.Admit(0, sched)
	if !ok {
		t.Fatal("proxy scan picked the down server")
	}
	if s, _ := st.Lookup(id); s.Server != 1 || s.Source != 0 || !s.Redirected {
		t.Fatalf("stream %+v, want redirect 0→1", s)
	}

	// v1 on {s0, s1}, s0 down, s1 full, s2 idle: s1 sources, s2 proxies.
	st = newState3(t)
	st.FailServer(0)
	fillServer(t, st, 1, 2)
	id, ok = st.Admit(1, sched)
	if !ok {
		t.Fatal("redirect sourced from the down holder")
	}
	if s, _ := st.Lookup(id); s.Server != 2 || s.Source != 1 || !s.Redirected {
		t.Fatalf("stream %+v, want redirect 1→2", s)
	}
}

// TestRedirectBoundaries pins Redirect's index boundaries on newState3:
// server 0 sources and proxies like any other server, and proxy ties go to
// the later index, as the doc comment says.
func TestRedirectBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		setup                  func(testing.TB, *State)
		video                  int
		wantServer, wantSource int
	}{
		{"server 0 sources when a later holder is also eligible", func(t testing.TB, st *State) {
			fillServer(t, st, 1, 4) // s0 then s1
		}, 1, 2, 0},
		{"proxy ties go to the later index", func(t testing.TB, st *State) {
			fillServer(t, st, 0, 2)
		}, 0, 2, 0},
		{"server 0 proxies", func(t testing.TB, st *State) {
			fillServer(t, st, 2, 2)
			st.FailServer(1)
		}, 2, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newState3(t)
			tc.setup(t, st)
			server, source := Redirect(st, tc.video, 4*core.Mbps)
			if server != tc.wantServer || source != tc.wantSource {
				t.Fatalf("Redirect(v%d) = server %d, source %d; want %d, %d",
					tc.video, server, source, tc.wantServer, tc.wantSource)
			}
		})
	}
}
