package cluster

import (
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// randomTestState builds a 3-server state with one video replicated
// everywhere, so every server is a feasible holder.
func randomTestState(t *testing.T) *State {
	t.Helper()
	catalog, err := core.NewCatalog(1, 0.75, 4e6, 5400)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         3,
		StoragePerServer:   1e12,
		BandwidthPerServer: 40e6,
		ArrivalRate:        1,
		PeakPeriod:         5400,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := &core.Layout{Servers: [][]int{{0, 1, 2}}}
	st, err := New(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRandomHolderDeterministicPerSeed(t *testing.T) {
	pick := func(seed int64) []int {
		st := randomTestState(t)
		r := NewRandomHolder(seed)
		choices := make([]int, 0, 20)
		for i := 0; i < 20; i++ {
			d := r.Schedule(st, 0)
			if !d.Accept {
				t.Fatalf("decision %d rejected with all servers free", i)
			}
			choices = append(choices, d.Server)
		}
		return choices
	}
	a, b := pick(1), pick(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := pick(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical choice sequences")
	}
}

func TestRandomHolderSeedDecisionOverridesStream(t *testing.T) {
	st := randomTestState(t)
	r := NewRandomHolder(0)
	base := stats.NewRNG(99)
	// Re-seeding with the same decision stream must reproduce the choice,
	// regardless of what the policy consumed in between.
	r.SeedDecision(base.Derive(5))
	d1 := r.Schedule(st, 0)
	r.SeedDecision(base.Derive(6))
	_ = r.Schedule(st, 0)
	r.SeedDecision(base.Derive(5))
	d2 := r.Schedule(st, 0)
	if d1.Server != d2.Server {
		t.Fatalf("same decision stream chose %d then %d", d1.Server, d2.Server)
	}
}

func TestRandomHolderRespectsFeasibility(t *testing.T) {
	st := randomTestState(t)
	// Saturate servers 0 and 1; only server 2 can serve.
	rate := st.Problem().Catalog[0].BitRate
	for s := 0; s < 2; s++ {
		for st.FreeBandwidth(s) >= rate {
			if _, ok := st.AdmitDirect(0, s); !ok {
				break
			}
		}
	}
	r := NewRandomHolder(3)
	for i := 0; i < 10; i++ {
		d := r.Schedule(st, 0)
		if !d.Accept || d.Server != 2 {
			t.Fatalf("decision %d chose %+v, want server 2", i, d)
		}
	}
	// Saturate the last server: every decision must reject.
	for st.FreeBandwidth(2) >= rate {
		if _, ok := st.AdmitDirect(0, 2); !ok {
			break
		}
	}
	if d := r.Schedule(st, 0); d.Accept {
		t.Fatalf("accepted %+v with the cluster saturated", d)
	}
}
