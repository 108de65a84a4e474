package cluster

import (
	"testing"

	"vodcluster/internal/core"
)

// TestLeastLoadedSkipsDownHolder: a failed holder's link is empty, so it
// has the most free bandwidth of all; least-loaded must still admit on the
// up holder with room instead of ranking the down one and rejecting.
func TestLeastLoadedSkipsDownHolder(t *testing.T) {
	st := newState(t, 0)
	if _, ok := st.AdmitDirect(2, 1); !ok { // s1 busier than s0
		t.Fatal("admit failed")
	}
	st.FailServer(0)
	id, ok := st.Admit(0, LeastLoaded{})
	if !ok {
		t.Fatal("least-loaded rejected although up holder 1 has room")
	}
	if s, _ := st.Lookup(id); s.Server != 1 {
		t.Fatalf("least-loaded picked server %d, want 1", s.Server)
	}
}

// TestMostFreeFailoverSkipsDownAndExcluded: the failover rank passes over
// a down holder (empty link) and the excluded one, and lands on the up
// holder with room.
func TestMostFreeFailoverSkipsDownAndExcluded(t *testing.T) {
	c := core.Catalog{
		{ID: 0, Popularity: 0.6, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 10 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(2)
	l.Replicas = []int{3, 1}
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {0, 2}, {1, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	st, err := New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.AdmitDirect(1, 2); !ok { // s2: 6 Mb/s free, s0 and s1: 10
		t.Fatal("admit failed")
	}
	st.FailServer(0)
	if got := MostFree(st, 0, 1); got != 2 {
		t.Fatalf("failover rank excluding 1 picked %d, want 2", got)
	}
	if got := MostFree(st, 0, -1); got != 1 {
		t.Fatalf("least-loaded rank picked %d, want 1", got)
	}
	st.FailServer(2)
	if got := MostFree(st, 0, 1); got != -1 {
		t.Fatalf("failover rank with every other holder down picked %d, want -1", got)
	}
}
