package cluster

import (
	"sort"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
)

// contains reports whether sorted holder list xs names server x.
func contains(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}

// evictProblem builds a 3-server cluster with spare storage so replicas can
// be added and evicted at runtime.
func evictProblem(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	c, err := core.NewCatalog(6, 0.9, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   5 * c[0].SizeBytes(),
		BandwidthPerServer: 100 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
		BackboneBandwidth:  core.Gbps,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := replicate.BoundedAdams{}.Replicate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	return p, layout
}

// TestEvictReplicaRefusesPinnedStreams exercises eviction racing active
// sessions: a replica feeding a live stream — directly or as the source of a
// redirected stream — must survive until the stream ends, and the refusal
// must leak no resources.
func TestEvictReplicaRefusesPinnedStreams(t *testing.T) {
	p, layout := evictProblem(t)
	st, err := New(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a video with at least two replicas so eviction is otherwise legal.
	v := -1
	for cand := 0; cand < p.M(); cand++ {
		if st.Replicas(cand) >= 2 {
			v = cand
			break
		}
	}
	if v == -1 {
		t.Fatal("layout has no replicated video")
	}
	s := st.Holders(v)[0]

	// Direct stream pinned to the replica.
	id, ok := st.AdmitDirect(v, s)
	if !ok {
		t.Fatal("admission failed with free capacity")
	}
	if got := st.PinnedStreams(v, s); got != 1 {
		t.Fatalf("PinnedStreams = %d, want 1", got)
	}
	usedBefore := st.StorageUsed(s)
	if err := st.EvictReplica(v, s); err == nil {
		t.Fatal("evicted a replica feeding a live stream")
	}
	if st.StorageUsed(s) != usedBefore {
		t.Fatal("failed eviction changed storage accounting")
	}
	if !contains(st.Holders(v), s) {
		t.Fatal("failed eviction removed the holder")
	}

	// A redirected stream sourced from s pins the replica too.
	other := -1
	for cand := 0; cand < p.N(); cand++ {
		if cand != s && !contains(st.Holders(v), cand) {
			other = cand
			break
		}
	}
	if other >= 0 {
		id2, ok := st.admit(v, Decision{Accept: true, Server: other, Source: s})
		if !ok {
			t.Fatal("redirected admission failed with free capacity")
		}
		if err := st.Release(id); err != nil {
			t.Fatal(err)
		}
		if got := st.PinnedStreams(v, s); got != 1 {
			t.Fatalf("redirected stream not pinned: PinnedStreams = %d", got)
		}
		if err := st.EvictReplica(v, s); err == nil {
			t.Fatal("evicted the source replica of a redirected stream")
		}
		if err := st.Release(id2); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := st.Release(id); err != nil {
			t.Fatal(err)
		}
	}

	// With every stream drained the eviction proceeds and refunds storage.
	if got := st.PinnedStreams(v, s); got != 0 {
		t.Fatalf("PinnedStreams = %d after drain", got)
	}
	if err := st.EvictReplica(v, s); err != nil {
		t.Fatalf("eviction failed after drain: %v", err)
	}
	if contains(st.Holders(v), s) {
		t.Fatal("holder list still names the evicted server")
	}
	if want := usedBefore - p.Catalog[v].SizeBytes(); st.StorageUsed(s) != want {
		t.Fatalf("storage after eviction %g, want %g", st.StorageUsed(s), want)
	}
	// Bandwidth fully refunded: nothing active anywhere.
	for srv := 0; srv < p.N(); srv++ {
		if st.UsedBandwidth(srv) != 0 || st.ActiveStreams(srv) != 0 {
			t.Fatalf("server %d leaks bandwidth after drain", srv)
		}
	}
	if st.BackboneFree() != p.BackboneBandwidth {
		t.Fatal("backbone bandwidth leaked")
	}
}

// TestEvictReplicaLastCopyAndBounds covers the guardrails: the last replica
// is sacrosanct, and bad coordinates error cleanly.
func TestEvictReplicaLastCopyAndBounds(t *testing.T) {
	p, layout := evictProblem(t)
	st, err := New(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	v := -1
	for cand := 0; cand < p.M(); cand++ {
		if st.Replicas(cand) == 1 {
			v = cand
			break
		}
	}
	if v == -1 {
		t.Skip("every video replicated; nothing holds a last copy")
	}
	if err := st.EvictReplica(v, st.Holders(v)[0]); err == nil {
		t.Fatal("evicted a video's last replica")
	}
	if err := st.EvictReplica(-1, 0); err == nil {
		t.Fatal("negative video accepted")
	}
	if err := st.EvictReplica(0, p.N()+3); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

// TestAddReplicaRateUnderLiveLoad adds a scaled-rate replica while streams
// are active, verifies its storage charge uses the copy's own rate, and
// evicts it again once its stream drains.
func TestAddReplicaRateUnderLiveLoad(t *testing.T) {
	p, layout := evictProblem(t)
	rates := make([][]float64, p.M())
	for v := range rates {
		rates[v] = make([]float64, p.N())
		for _, s := range layout.Servers[v] {
			rates[v][s] = p.Catalog[v].BitRate
		}
	}
	st, err := New(p, layout, WithCopyRates(rates))
	if err != nil {
		t.Fatal(err)
	}
	// Keep a stream running on an existing copy throughout.
	v0 := 0
	s0 := st.Holders(v0)[0]
	id, ok := st.AdmitDirect(v0, s0)
	if !ok {
		t.Fatal("admission failed")
	}

	// Add a half-rate replica of another video on a server lacking it.
	v, dst := -1, -1
	for cand := 0; cand < p.M() && v == -1; cand++ {
		for srv := 0; srv < p.N(); srv++ {
			if !contains(st.Holders(cand), srv) && st.Eligible(srv) {
				v, dst = cand, srv
				break
			}
		}
	}
	if v == -1 {
		t.Fatal("layout saturated; no slot for a new replica")
	}
	if err := st.AddReplica(v, dst); err == nil {
		t.Fatal("AddReplica accepted on a per-copy-rate state")
	}
	rate := p.Catalog[v].BitRate / 2
	usedBefore := st.StorageUsed(dst)
	if err := st.AddReplicaRate(v, dst, rate); err != nil {
		t.Fatal(err)
	}
	wantCharge := rate * p.Catalog[v].Duration / 8
	if got := st.StorageUsed(dst) - usedBefore; got != wantCharge {
		t.Fatalf("storage charge %g, want %g", got, wantCharge)
	}
	if got := st.RateOf(v, dst); got != rate {
		t.Fatalf("RateOf = %g, want %g", got, rate)
	}

	// Pin the new copy, watch eviction refuse, then drain and evict.
	id2, ok := st.AdmitDirect(v, dst)
	if !ok {
		t.Fatal("admission on the new copy failed")
	}
	if err := st.EvictReplica(v, dst); err == nil {
		t.Fatal("evicted a pinned scaled-rate replica")
	}
	if err := st.Release(id2); err != nil {
		t.Fatal(err)
	}
	if err := st.EvictReplica(v, dst); err != nil {
		t.Fatalf("eviction after drain failed: %v", err)
	}
	if got := st.StorageUsed(dst); got != usedBefore {
		t.Fatalf("scaled-rate refund wrong: storage %g, want %g", got, usedBefore)
	}
	if st.RateOf(v, dst) != 0 {
		t.Fatal("copy rate not cleared after eviction")
	}
	if err := st.Release(id); err != nil {
		t.Fatal(err)
	}
}
