package cluster

import (
	"testing"

	"vodcluster/internal/core"
)

func TestFailServerDropsItsStreams(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	// Two streams on server 0 (v1 lives only there) and one on server 1.
	if _, ok := st.Admit(1, FirstAvailable{}); !ok {
		t.Fatal("admit failed")
	}
	if _, ok := st.Admit(1, FirstAvailable{}); !ok {
		t.Fatal("admit failed")
	}
	id2, ok := st.Admit(2, FirstAvailable{}) // v2 lives on server 1
	if !ok {
		t.Fatal("admit failed")
	}

	torn := st.FailServer(0)
	if len(torn) != 2 {
		t.Fatalf("dropped %d streams, want 2", len(torn))
	}
	// Teardown is reported in admission order with the stream records intact.
	for i, tr := range torn {
		if i > 0 && torn[i-1].ID >= tr.ID {
			t.Fatal("torn streams not in admission order")
		}
		if tr.Video != 1 || tr.Server != 0 {
			t.Fatalf("torn stream %d records %+v, want video 1 on server 0", i, tr.Stream)
		}
	}
	if st.Eligible(0) {
		t.Fatal("server still up after FailServer")
	}
	if st.UpServers() != 1 {
		t.Fatalf("up servers = %d", st.UpServers())
	}
	if st.UsedBandwidth(0) != 0 || st.ActiveStreams(0) != 0 {
		t.Fatal("failed server still charged")
	}
	if _, ok := st.Lookup(id2); !ok {
		t.Fatal("unrelated stream torn down")
	}
	// Requests for v1 (only on server 0) must now be rejected by every
	// scheduler.
	for _, sched := range []Scheduler{StaticRoundRobin{}, FirstAvailable{}, LeastLoaded{}} {
		if _, ok := st.Admit(1, sched); ok {
			t.Fatalf("%s admitted to a down server", sched.Name())
		}
	}
	// v0 has a replica on server 1, so it is still servable.
	if _, ok := st.Admit(0, FirstAvailable{}); !ok {
		t.Fatal("surviving replica not used")
	}

	st.RestoreServer(0)
	if !st.Eligible(0) {
		t.Fatal("RestoreServer did not revive")
	}
	if _, ok := st.Admit(1, FirstAvailable{}); !ok {
		t.Fatal("restored server not servable")
	}
}

func TestFailServerIdempotentAndBounds(t *testing.T) {
	st := newState(t, 0)
	if len(st.FailServer(0)) != 0 {
		t.Fatal("failing an idle server dropped streams")
	}
	if len(st.FailServer(0)) != 0 {
		t.Fatal("double failure dropped streams")
	}
	if len(st.FailServer(-1)) != 0 || len(st.FailServer(99)) != 0 {
		t.Fatal("out-of-range failure did something")
	}
	st.RestoreServer(-1) // must not panic
	st.RestoreServer(99)
}

func TestFailServerTearsDownRedirectedSources(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	// A redirected stream: source server 0, proxy server 1.
	id, ok := st.Admit(1, fixedScheduler{Decision{Accept: true, Server: 1, Source: 0}})
	if !ok {
		t.Fatal("redirected admit failed")
	}
	if torn := st.FailServer(0); len(torn) != 1 || !torn[0].Redirected {
		t.Fatalf("source failure tore down %v, want the one redirected stream", torn)
	}
	if _, ok := st.Lookup(id); ok {
		t.Fatal("redirected stream survived its source's failure")
	}
	if st.BackboneFree() != 8*core.Mbps {
		t.Fatal("backbone not refunded on failure teardown")
	}
	if st.UsedBandwidth(1) != 0 {
		t.Fatal("proxy bandwidth not refunded")
	}
}

func TestAdmitRejectsDownRedirectSource(t *testing.T) {
	st := newState(t, 8*core.Mbps)
	st.FailServer(0)
	if _, ok := st.Admit(1, fixedScheduler{Decision{Accept: true, Server: 1, Source: 0}}); ok {
		t.Fatal("admitted a stream sourced from a down server")
	}
}

func TestStreamLimit(t *testing.T) {
	p := testProblem(t, 0)
	l := testLayout(t)
	st, err := New(p, l, WithStreamLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Admit(1, FirstAvailable{}); !ok {
		t.Fatal("first stream refused")
	}
	// Server 0 has bandwidth for another stream (10 Mb/s link, 4 Mb/s
	// streams) but the disk limit caps it at one.
	if _, ok := st.Admit(1, FirstAvailable{}); ok {
		t.Fatal("stream limit not enforced")
	}
	// Another video on the other server is fine.
	if _, ok := st.Admit(2, FirstAvailable{}); !ok {
		t.Fatal("limit leaked across servers")
	}
}
