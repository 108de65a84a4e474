package cluster

import (
	"math"
	"testing"

	"vodcluster/internal/core"
)

// TestAddReplicaRuntime grows and shrinks a video's holder set at runtime,
// on a state whose copies are at the catalog rate and on one whose layout
// gives per-copy rates. A catalog-rate state refuses any other rate; a
// per-copy state refuses a rate that is not finite and > 0.
func TestAddReplicaRuntime(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rates   [][]float64 // the layout's per-copy rates; nil for catalog
		add     float64     // rate of the copy of v1 landed on server 1
		refused []float64   // rates refused even with storage to spare
	}{
		{"catalog rates", nil, 4 * core.Mbps, []float64{2 * core.Mbps, 0}},
		{"per-copy rates", [][]float64{{2 * core.Mbps, 4 * core.Mbps}, {4 * core.Mbps}, {4 * core.Mbps}}, 2 * core.Mbps,
			[]float64{0, -core.Mbps, math.NaN(), math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, l := testProblem(t, 0), testLayout(t)
			l.Rates = tc.rates
			st, err := New(p, l)
			if err != nil {
				t.Fatal(err)
			}
			// Layout: v0 on {0,1}, v1 on {0}, v2 on {1}; server 1 is full.
			if err := st.AddReplica(1, 1, tc.add); err == nil {
				t.Fatal("add beyond storage capacity accepted")
			}
			// Free a slot first.
			if err := st.RemoveReplica(0, 1); err != nil {
				t.Fatal(err)
			}
			if st.Replicas(0) != 1 {
				t.Fatalf("replicas of v0 = %d", st.Replicas(0))
			}
			for _, rate := range tc.refused {
				if err := st.AddReplica(1, 1, rate); err == nil {
					t.Fatalf("rate %g accepted", rate)
				}
			}
			used := st.StorageUsed(1)
			if err := st.AddReplica(1, 1, tc.add); err != nil {
				t.Fatalf("add after eviction failed: %v", err)
			}
			if st.Replicas(1) != 2 {
				t.Fatalf("replicas of v1 = %d", st.Replicas(1))
			}
			holders := st.Holders(1)
			if len(holders) != 2 || holders[0] != 0 || holders[1] != 1 {
				t.Fatalf("holders of v1 = %v", holders)
			}
			if got := st.RateOf(1, 1); got != tc.add {
				t.Fatalf("new copy's rate %g, want %g", got, tc.add)
			}
			if got, want := st.StorageUsed(1)-used, p.Catalog[1].SizeAtRate(tc.add); got != want {
				t.Fatalf("storage charge %g, want %g", got, want)
			}
			// The layout's rows stay as built: states copy the rates.
			if tc.rates != nil && (len(l.Rates[1]) != 1 || len(l.Rates[0]) != 2) {
				t.Fatalf("state mutation leaked into the layout's rates: %v", l.Rates)
			}
			// Round-robin over the grown holder set reaches the new replica.
			seen := map[int]bool{}
			for i := 0; i < 4; i++ {
				if id, ok := st.Admit(1, StaticRoundRobin{}); ok {
					s, _ := st.Lookup(id)
					seen[s.Server] = true
					if err := st.Release(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !seen[0] || !seen[1] {
				t.Fatalf("scheduler never used the new replica: %v", seen)
			}
		})
	}
}

func TestAddReplicaValidation(t *testing.T) {
	st := newState(t, 0)
	if err := st.AddReplica(-1, 0, 4*core.Mbps); err == nil {
		t.Fatal("negative video accepted")
	}
	if err := st.AddReplica(0, 9, 4*core.Mbps); err == nil {
		t.Fatal("bad server accepted")
	}
	if err := st.AddReplica(0, 0, 4*core.Mbps); err == nil {
		t.Fatal("duplicate replica accepted (Eq. 6)")
	}
	st.FailServer(1)
	if err := st.AddReplica(1, 1, 4*core.Mbps); err == nil {
		t.Fatal("add to down server accepted")
	}
}

func TestRemoveReplicaValidation(t *testing.T) {
	st := newState(t, 0)
	if err := st.RemoveReplica(1, 1); err == nil {
		t.Fatal("removing a replica the server lacks accepted")
	}
	if err := st.RemoveReplica(1, 0); err == nil {
		t.Fatal("removing the last replica accepted (Eq. 7)")
	}
	if err := st.RemoveReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveReplica(9, 0); err == nil {
		t.Fatal("bad video accepted")
	}
}

func TestStorageAccounting(t *testing.T) {
	st := newState(t, 0)
	size := st.Problem().Catalog[0].SizeBytes()
	if st.StorageFree(0) > 1e-6 {
		t.Fatalf("full server reports %g bytes free", st.StorageFree(0))
	}
	if err := st.RemoveReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.StorageFree(0); got < size-1e-6 {
		t.Fatalf("free after eviction %g, want %g", got, size)
	}
	if got := st.StorageUsed(0); got < size-1e-6 || got > size+1e-6 {
		t.Fatalf("used after eviction %g, want %g", got, size)
	}
}

func TestOutgoingReservation(t *testing.T) {
	st := newState(t, 0)
	if st.ReserveOutgoing(0, 0) || st.ReserveOutgoing(-1, core.Mbps) || st.ReserveOutgoing(9, core.Mbps) {
		t.Fatal("degenerate reservation accepted")
	}
	if !st.ReserveOutgoing(0, 8*core.Mbps) {
		t.Fatal("reservation within the link refused")
	}
	// 2 Mb/s left on the 10 Mb/s link: a 4 Mb/s stream no longer fits.
	if _, ok := st.Admit(1, FirstAvailable{}); ok {
		t.Fatal("admission ignored the outgoing reservation")
	}
	if st.ReserveOutgoing(0, 4*core.Mbps) {
		t.Fatal("over-reservation accepted")
	}
	st.ReleaseOutgoing(0, 8*core.Mbps)
	if st.UsedBandwidth(0) != 0 {
		t.Fatalf("used bandwidth %g after release", st.UsedBandwidth(0))
	}
	st.ReleaseOutgoing(0, core.Gbps) // over-release clamps
	if st.UsedBandwidth(0) != 0 {
		t.Fatal("over-release corrupted accounting")
	}
	st.FailServer(0)
	if st.ReserveOutgoing(0, core.Mbps) {
		t.Fatal("reservation on a down server accepted")
	}
}

func TestAdmitDirect(t *testing.T) {
	st := newState(t, 0)
	// Server 1 holds no copy of v1.
	if _, ok := st.AdmitDirect(1, 1); ok {
		t.Fatal("admitted onto a non-holder")
	}
	if _, ok := st.AdmitDirect(-1, 0); ok {
		t.Fatal("bad video accepted")
	}
	if _, ok := st.AdmitDirect(0, 9); ok {
		t.Fatal("bad server accepted")
	}
	id, ok := st.AdmitDirect(1, 0)
	if !ok {
		t.Fatal("direct admission onto the holder failed")
	}
	if s, _ := st.Lookup(id); s.Server != 0 || s.Redirected {
		t.Fatalf("direct admission produced %+v", s)
	}
	st.FailServer(0)
	if _, ok := st.AdmitDirect(1, 0); ok {
		t.Fatal("admitted onto a down server")
	}
}

func TestNominalRate(t *testing.T) {
	st := newState(t, 0)
	if got := st.NominalRate(0); got != 4*core.Mbps {
		t.Fatalf("nominal rate %g, want the catalog's 4 Mb/s", got)
	}
	// Per-copy rates: the nominal rate is the best copy's.
	p, l := testProblem(t, 0), testLayout(t)
	l.Rates = [][]float64{{2 * core.Mbps, 6 * core.Mbps}, {4 * core.Mbps}, {2 * core.Mbps}}
	rs, err := New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.NominalRate(0); got != 6*core.Mbps {
		t.Fatalf("copy-rate nominal %g, want 6 Mb/s", got)
	}
}

func TestBackboneReservation(t *testing.T) {
	st := newState(t, 10*core.Mbps)
	if st.ReserveBackbone(0) {
		t.Fatal("zero reservation accepted")
	}
	if !st.ReserveBackbone(6 * core.Mbps) {
		t.Fatal("reservation within capacity refused")
	}
	if st.ReserveBackbone(6 * core.Mbps) {
		t.Fatal("over-reservation accepted")
	}
	st.ReleaseBackbone(6 * core.Mbps)
	if st.BackboneFree() != 10*core.Mbps {
		t.Fatalf("backbone free %g after release", st.BackboneFree())
	}
	st.ReleaseBackbone(100 * core.Mbps) // over-release clamps to zero usage
	if st.BackboneFree() != 10*core.Mbps {
		t.Fatal("over-release corrupted accounting")
	}
}
