package resilience

import (
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// testProblem: 4 videos, 3 servers, 12 Mb/s links, 4 Mb/s videos — each
// server carries at most 3 concurrent full-rate streams.
func testProblem(t testing.TB, backbone float64) *core.Problem {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
		{ID: 3, Popularity: 0.1, BitRate: 4 * core.Mbps, Duration: 90 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         3,
		StoragePerServer:   3 * c[0].SizeBytes(),
		BandwidthPerServer: 12 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
		BackboneBandwidth:  backbone,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// testLayout: v0 on {0,1}, v1 on {0,2}, v2 on {1}, v3 on {2}.
func testLayout(t testing.TB) *core.Layout {
	t.Helper()
	l := core.NewLayout(4)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {3, 2}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func newState(t testing.TB, backbone float64, opts ...cluster.Option) *cluster.State {
	t.Helper()
	st, err := cluster.New(testProblem(t, backbone), testLayout(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPolicyDefaultsAndValidation(t *testing.T) {
	var zero Policy
	if zero.Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	def := zero.WithDefaults()
	if err := def.Validate(); err != nil {
		t.Fatalf("defaulted policy invalid: %v", err)
	}
	if def.RetryBase != 5 || def.RetryFactor != 2 || def.RetryPatience != 120 ||
		def.RetryLimit != 256 || def.DegradeFloor != 0.5 || def.RepairMinLive != 2 {
		t.Fatalf("unexpected defaults: %+v", def)
	}
	all := All()
	if !all.Failover || !all.Retry || !all.Degrade || !all.Repair || !all.Enabled() {
		t.Fatalf("All() left something off: %+v", all)
	}
	bad := []Policy{
		(Policy{RetryBase: -1}).WithDefaults(),
		func() Policy { p := All(); p.RetryFactor = 0.5; return p }(),
		func() Policy { p := All(); p.RetryJitter = 2; return p }(),
		func() Policy { p := All(); p.DegradeFloor = 1.5; return p }(),
		func() Policy { p := All(); p.RepairMinLive = -3; return p }(),
		func() Policy { p := All(); p.RepairInterval = -5; return p }(),
		func() Policy { p := All(); p.RepairRate = -1; return p }(),
		func() Policy { p := All(); p.RepairMaxPerTick = -2; return p }(),
		func() Policy { p := All(); p.RepairBudget = -1; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestTryFailoverPicksSurvivingReplica(t *testing.T) {
	st := newState(t, 0)
	torn := st.FailServer(0)
	if len(torn) != 0 {
		t.Fatalf("idle failure tore down %d streams", len(torn))
	}
	// v0 has a surviving replica on server 1, v1 on server 2.
	id, ok := TryFailover(st, 0, 1.0)
	if !ok {
		t.Fatal("failover missed the surviving replica")
	}
	if s, _ := st.Lookup(id); s.Server != 1 {
		t.Fatalf("failover landed on server %d, want 1", s.Server)
	}
	// A video whose replicas are all down cannot fail over.
	st.FailServer(2)
	if _, ok := TryFailover(st, 3, 1.0); ok {
		t.Fatal("failover invented a replica for a fully-down video")
	}
}

func TestTryFailoverHonorsFloor(t *testing.T) {
	p, l := testProblem(t, 0), testLayout(t)
	// v0's copies: 4 Mb/s on server 0, 2 Mb/s on server 1 (half quality).
	l.Rates = [][]float64{{4 * core.Mbps, 2 * core.Mbps}, {4 * core.Mbps, 4 * core.Mbps}, {4 * core.Mbps}, {4 * core.Mbps}}
	st, err := cluster.New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(0)
	// Floor 0.75: the surviving 2 Mb/s copy (ratio 0.5) is below the bar.
	if _, ok := TryFailover(st, 0, 0.75); ok {
		t.Fatal("failover accepted a copy below the quality floor")
	}
	// Floor 0.5 admits it.
	id, ok := TryFailover(st, 0, 0.5)
	if !ok {
		t.Fatal("failover refused a copy at the floor")
	}
	if s, _ := st.Lookup(id); s.Rate != 2*core.Mbps || s.Server != 1 {
		t.Fatalf("failover stream %+v, want 2 Mb/s on server 1", s)
	}
}

func TestDegraderServesLowerRateCopy(t *testing.T) {
	p, l := testProblem(t, 0), testLayout(t)
	l.Rates = [][]float64{{4 * core.Mbps, 2 * core.Mbps}, {4 * core.Mbps, 4 * core.Mbps}, {4 * core.Mbps}, {4 * core.Mbps}}
	st, err := cluster.New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDegrader(cluster.StaticRoundRobin{}, 0.5)
	if d.Name() != "static-rr+degrade" {
		t.Fatalf("decorator name %q", d.Name())
	}
	// Saturate server 0 (12 Mb/s: three 4 Mb/s streams of v1).
	for i := 0; i < 3; i++ {
		if _, ok := st.AdmitDirect(1, 0); !ok {
			t.Fatalf("setup admit %d failed", i)
		}
	}
	// v0's rotation designates the saturated full-rate copy on server 0;
	// the degrader serves the 2 Mb/s copy on server 1 instead.
	id, ok := st.Admit(0, d)
	if !ok {
		t.Fatal("degraded admission failed")
	}
	if !d.LastDegraded() {
		t.Fatal("degraded admission not flagged")
	}
	if s, _ := st.Lookup(id); s.Rate != 2*core.Mbps || s.Server != 1 {
		t.Fatalf("degraded stream %+v, want 2 Mb/s on server 1", s)
	}
	// A later full-rate admission must not be flagged degraded.
	if _, ok := st.Admit(2, d); !ok {
		t.Fatal("full-rate admission failed")
	}
	if d.LastDegraded() {
		t.Fatal("full-rate admission flagged degraded")
	}
}

func TestDegraderFullRateRescueNotDegraded(t *testing.T) {
	// Uniform rates: static-rr rejects when its designated replica is
	// saturated; the degrader rescues at full rate, which must not count
	// as a degradation.
	st := newState(t, 0)
	d := NewDegrader(cluster.StaticRoundRobin{}, 0.5)
	// Saturate server 0; v0's rotation starts there.
	for i := 0; i < 3; i++ {
		if _, ok := st.AdmitDirect(1, 0); !ok {
			t.Fatal("setup failed")
		}
	}
	id, ok := st.Admit(0, d)
	if !ok {
		t.Fatal("rescue admission failed")
	}
	if d.LastDegraded() {
		t.Fatal("full-rate rescue flagged as degradation")
	}
	if s, _ := st.Lookup(id); s.Server != 1 {
		t.Fatalf("rescue landed on %d, want 1", s.Server)
	}
}

// TestRecoveryNeverTouchesDownServers is the safety property behind every
// mechanism: across randomized load, failure, and repair histories, neither
// failover nor degraded admission ever lands a stream on a down server.
func TestRecoveryNeverTouchesDownServers(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		st := newState(t, 0)
		d := NewDegrader(cluster.FirstAvailable{}, 0.5)
		var live []cluster.StreamID
		for step := 0; step < 60; step++ {
			switch rng.Intn(5) {
			case 0: // fail a random server
				st.FailServer(rng.Intn(3))
			case 1: // repair a random server
				st.RestoreServer(rng.Intn(3))
			case 2: // release a random stream
				if len(live) > 0 {
					i := rng.Intn(len(live))
					if _, ok := st.Lookup(live[i]); ok {
						if err := st.Release(live[i]); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live[:i], live[i+1:]...)
				}
			case 3: // degraded admission
				v := rng.Intn(4)
				if id, ok := st.Admit(v, d); ok {
					s, _ := st.Lookup(id)
					if !st.Eligible(s.Server) {
						t.Fatalf("trial %d: degrader admitted onto down server %d", trial, s.Server)
					}
					live = append(live, id)
				}
			case 4: // failover attempt
				v := rng.Intn(4)
				if id, ok := TryFailover(st, v, 0.5); ok {
					s, _ := st.Lookup(id)
					if !st.Eligible(s.Server) {
						t.Fatalf("trial %d: failover admitted onto down server %d", trial, s.Server)
					}
					live = append(live, id)
				}
			}
		}
	}
}
