package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/sim"
	"vodcluster/internal/striped"
)

func TestErlangBKnownValues(t *testing.T) {
	cases := []struct {
		erlangs float64
		servers int
		want    float64
	}{
		// Classic table values.
		{1, 1, 0.5},
		{1, 2, 0.2},
		{2, 2, 0.4},
		{10, 10, 0.21458},
		{100, 120, 0.0056901}, // cross-checked against direct log-sum evaluation
		// Edge cases.
		{0, 0, 1},
		{0, 5, 0},
		{5, 0, 1},
	}
	for _, c := range cases {
		got, err := ErlangB(c.erlangs, c.servers)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 5e-4*(1+c.want) && math.Abs(got-c.want) > 5e-5 {
			t.Fatalf("B(%g, %d) = %.6f, want %.6f", c.erlangs, c.servers, got, c.want)
		}
	}
	if _, err := ErlangB(-1, 2); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := ErlangB(1, -2); err == nil {
		t.Fatal("negative slots accepted")
	}
}

// TestErlangBMonotone: blocking rises with load and falls with slots.
func TestErlangBMonotone(t *testing.T) {
	f := func(eRaw, mRaw uint8) bool {
		e := float64(eRaw)/8 + 0.1
		m := int(mRaw%50) + 1
		b1, err1 := ErlangB(e, m)
		b2, err2 := ErlangB(e+1, m)
		b3, err3 := ErlangB(e, m+1)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return b2 >= b1-1e-12 && b3 <= b1+1e-12 && b1 >= 0 && b1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseErlangB(t *testing.T) {
	m, err := InverseErlangB(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// The returned count meets the target and is minimal.
	b, _ := ErlangB(100, m)
	if b > 0.01 {
		t.Fatalf("%d slots give blocking %g > 0.01", m, b)
	}
	b, _ = ErlangB(100, m-1)
	if b <= 0.01 {
		t.Fatalf("%d slots already sufficed", m-1)
	}
	if _, err := InverseErlangB(10, 0); err == nil {
		t.Fatal("zero target accepted")
	}
	if m, err := InverseErlangB(0, 0.01); err != nil || m != 0 {
		t.Fatalf("zero load needs zero slots: %d, %v", m, err)
	}
}

func TestErlangsForBlocking(t *testing.T) {
	e, err := ErlangsForBlocking(450, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ErlangB(e, 450)
	if math.Abs(b-0.01) > 1e-4 {
		t.Fatalf("load %g gives blocking %g, want 0.01", e, b)
	}
	// Large systems run close to capacity at 1% blocking (statistical
	// multiplexing): well above 85% utilization for 450 slots.
	if e/450 < 0.85 {
		t.Fatalf("utilization at 1%% blocking = %g, suspiciously low", e/450)
	}
	if _, err := ErlangsForBlocking(0, 0.01); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := ErlangsForBlocking(10, 1.5); err == nil {
		t.Fatal("target above 1 accepted")
	}
}

// validationScenario builds a cluster small enough to simulate to steady
// state quickly: 4 servers × 100 slots.
func validationScenario(t testing.TB, lambdaPerMin float64) (*core.Problem, *core.Layout) {
	t.Helper()
	c, err := core.NewCatalog(40, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         4,
		StoragePerServer:   14 * c[0].SizeBytes(),
		BandwidthPerServer: 0.4 * core.Gbps, // 100 slots/server
		ArrivalRate:        lambdaPerMin / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	budget, err := p.TargetTotalReplicas(1.4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := replicate.BoundedAdams{}.Replicate(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	return p, layout
}

// TestPooledBlockingMatchesStripedSim: Erlang B is exact for the striped
// pool, so a long warmed-up simulation must converge to it.
func TestPooledBlockingMatchesStripedSim(t *testing.T) {
	p, _ := validationScenario(t, 4.6) // 414 erlangs on 400 slots: ~7% blocking
	predicted, err := PooledBlocking(p)
	if err != nil {
		t.Fatal(err)
	}
	if predicted < 0.02 || predicted > 0.25 {
		t.Fatalf("scenario poorly chosen: predicted blocking %g", predicted)
	}
	var measured float64
	runs := 6
	for i := 0; i < runs; i++ {
		res, err := striped.Run(striped.Config{
			Problem:  p,
			Duration: 8 * p.PeakPeriod, // long horizon amortizes the fill transient
			Seed:     int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		measured += res.RejectionRate
	}
	measured /= float64(runs)
	if ratio := measured / predicted; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("striped sim %.4f vs Erlang-B %.4f (ratio %.2f)", measured, predicted, ratio)
	}
}

// TestReplicatedBlockingPredictsSim: the per-server Erlang-B approximation
// must land in the right ballpark for the replicated cluster.
func TestReplicatedBlockingPredictsSim(t *testing.T) {
	p, layout := validationScenario(t, 4.6)
	predicted, err := ReplicatedBlocking(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	var measured float64
	runs := 6
	for i := 0; i < runs; i++ {
		res, err := sim.Run(sim.Config{
			Problem: p, Layout: layout,
			Duration: 8 * p.PeakPeriod,
			Warmup:   p.PeakPeriod,
			Seed:     int64(200 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		measured += res.RejectionRate
	}
	measured /= float64(runs)
	if predicted <= 0 {
		t.Fatalf("prediction degenerate: %g", predicted)
	}
	if ratio := measured / predicted; ratio < 0.5 || ratio > 2 {
		t.Fatalf("replicated sim %.4f vs Erlang-B approx %.4f (ratio %.2f)", measured, predicted, ratio)
	}
	// Pooling always beats partitioning: the striped prediction is a lower
	// bound on the replicated one.
	pooled, err := PooledBlocking(p)
	if err != nil {
		t.Fatal(err)
	}
	if predicted < pooled-1e-12 {
		t.Fatalf("partitioned blocking %g below pooled bound %g", predicted, pooled)
	}
}

func TestPerServerBlocking(t *testing.T) {
	p, layout := validationScenario(t, 4.6)
	bs, err := PerServerBlocking(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != p.N() {
		t.Fatalf("%d entries for %d servers", len(bs), p.N())
	}
	for s, b := range bs {
		if b < 0 || b > 1 {
			t.Fatalf("server %d blocking %g out of range", s, b)
		}
	}
}

func TestAnalyticValidation(t *testing.T) {
	p, layout := validationScenario(t, 4.6)
	q := p.Clone()
	q.Catalog[0].BitRate = 8 * core.Mbps
	if _, err := PooledBlocking(q); err == nil {
		t.Fatal("mixed rates accepted by pooled blocking")
	}
	if _, err := ReplicatedBlocking(q, layout); err == nil {
		t.Fatal("mixed rates accepted by replicated blocking")
	}
	bad := layout.Clone()
	bad.Servers[0] = nil
	if _, err := ReplicatedBlocking(p, bad); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func BenchmarkErlangB3600(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ErlangB(3600, 3600); err != nil {
			b.Fatal(err)
		}
	}
}
