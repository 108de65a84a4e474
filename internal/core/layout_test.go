package core

import (
	"math"
	"strings"
	"testing"
)

// tinyProblem: 3 videos on 2 servers, 2 replicas of storage each, easy
// numbers: popularities 0.5, 0.3, 0.2, peak requests 100.
func tinyProblem(t testing.TB) *Problem {
	t.Helper()
	c := Catalog{
		{ID: 0, Popularity: 0.5, BitRate: 4 * Mbps, Duration: 90 * Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * Mbps, Duration: 90 * Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * Mbps, Duration: 90 * Minute},
	}
	p := &Problem{
		Catalog:            c,
		NumServers:         2,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: Gbps,
		ArrivalRate:        100.0 / (90 * Minute),
		PeakPeriod:         90 * Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// tinyLayout: v0 on both servers, v1 on s0, v2 on s1.
func tinyLayout(t testing.TB) *Layout {
	t.Helper()
	l := NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {2, 1}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestLayoutPlaceAndHolds(t *testing.T) {
	l := NewLayout(2)
	if l.Holds(0, 1) {
		t.Fatal("empty layout holds something")
	}
	if err := l.Place(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Place(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Place(0, 1); err == nil {
		t.Fatal("duplicate placement accepted (Eq. 6)")
	}
	if got := l.Servers[0]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("server list not sorted: %v", got)
	}
	if !l.Holds(0, 3) || !l.Holds(0, 1) || l.Holds(0, 2) {
		t.Fatal("Holds inconsistent")
	}
}

func TestLayoutTotalsAndDegree(t *testing.T) {
	l := tinyLayout(t)
	if l.TotalReplicas() != 4 {
		t.Fatalf("total = %d", l.TotalReplicas())
	}
	if got := l.ReplicaCounts(); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("replica counts = %v, want [2 1 1]", got)
	}
	if got := l.ReplicationDegree(); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("degree = %g", got)
	}
	var empty Layout
	if empty.ReplicationDegree() != 0 {
		t.Fatal("empty layout degree must be 0")
	}
}

func TestLayoutWeights(t *testing.T) {
	p := tinyProblem(t)
	l := tinyLayout(t)
	w := l.Weights(p)
	// Peak requests = 100: w0 = 0.5·100/2 = 25, w1 = 30, w2 = 20.
	want := []float64{25, 30, 20}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-9 {
			t.Fatalf("w[%d] = %g, want %g", i, w[i], want[i])
		}
	}
}

func TestLayoutServerLoads(t *testing.T) {
	p := tinyProblem(t)
	l := tinyLayout(t)
	loads := l.ServerLoads(p)
	// s0: w0 + w1 = 55; s1: w0 + w2 = 45.
	if math.Abs(loads[0]-55) > 1e-9 || math.Abs(loads[1]-45) > 1e-9 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestLayoutBandwidthDemandAndStorage(t *testing.T) {
	p := tinyProblem(t)
	l := tinyLayout(t)
	demand := l.ServerBandwidthDemand(p)
	// Expected concurrent bandwidth = load × 4 Mb/s (duration == peak).
	if math.Abs(demand[0]-55*4*Mbps) > 1 || math.Abs(demand[1]-45*4*Mbps) > 1 {
		t.Fatalf("demand = %v", demand)
	}
	worst, ok := l.BandwidthFeasible(p)
	if !ok {
		t.Fatalf("demand %v within 1 Gb/s links must be feasible", demand)
	}
	if math.Abs(worst-55*4*Mbps/Gbps) > 1e-9 {
		t.Fatalf("worst utilization = %g", worst)
	}
	used := l.ServerStorageUsed(p)
	size := p.Catalog[0].SizeBytes()
	if math.Abs(used[0]-2*size) > 1 || math.Abs(used[1]-2*size) > 1 {
		t.Fatalf("storage used = %v", used)
	}
}

func TestLayoutBandwidthInfeasible(t *testing.T) {
	p := tinyProblem(t)
	p.BandwidthPerServer = 100 * Mbps // 55 × 4 Mb/s = 220 Mb/s demand
	l := tinyLayout(t)
	if _, ok := l.BandwidthFeasible(p); ok {
		t.Fatal("overloaded link reported feasible")
	}
}

func TestLayoutOverlapCappedAtPeak(t *testing.T) {
	// A video longer than the peak period must not multiply demand past w·b.
	p := tinyProblem(t)
	for i := range p.Catalog {
		p.Catalog[i].Duration = 2 * p.PeakPeriod
	}
	p.StoragePerServer = 2 * p.Catalog[0].SizeBytes()
	l := tinyLayout(t)
	demand := l.ServerBandwidthDemand(p)
	if math.Abs(demand[0]-55*4*Mbps) > 1 {
		t.Fatalf("overlap not capped: %v", demand)
	}
}

func TestLayoutValidate(t *testing.T) {
	p := tinyProblem(t)
	if err := tinyLayout(t).Validate(p); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Layout)
		want   string
	}{
		{"wrong length", func(l *Layout) { l.Servers = l.Servers[:2] }, "covers"},
		{"zero replicas", func(l *Layout) { l.Servers[1] = nil }, "Eq. 7"},
		{"too many replicas", func(l *Layout) { l.Servers[0] = []int{0, 1, 2} }, "Eq. 7"},
		{"bad server", func(l *Layout) { l.Servers[1][0] = 9 }, "invalid server"},
		{"duplicate server", func(l *Layout) { l.Servers[0] = []int{1, 1} }, "Eq. 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tinyLayout(t)
			tc.mutate(l)
			err := l.Validate(p)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestLayoutValidateStorage(t *testing.T) {
	p := tinyProblem(t)
	p.StoragePerServer = 1.5 * p.Catalog[0].SizeBytes() // fits one replica
	l := tinyLayout(t)                                  // two replicas per server
	err := l.Validate(p)
	if err == nil || !strings.Contains(err.Error(), "Eq. 4") {
		t.Fatalf("storage violation not caught: %v", err)
	}
}

// TestLayoutValidateRates runs Validate over per-copy rates on tinyLayout,
// whose servers are full at the catalog's 4 Mb/s: one rate per copy, each
// finite and > 0, and Eq. 4 with every copy sized at its own rate. Each
// case's Clone must validate the same way.
func TestLayoutValidateRates(t *testing.T) {
	p := tinyProblem(t)
	const over = 6 * (1 + 1e-6) * Mbps
	cases := []struct {
		name  string
		rates [][]float64
		want  string // "" when the layout is valid
	}{
		{"catalog rates", [][]float64{{4 * Mbps, 4 * Mbps}, {4 * Mbps}, {4 * Mbps}}, ""},
		{"mixed rates at capacity", [][]float64{{2 * Mbps, 6 * Mbps}, {6 * Mbps}, {2 * Mbps}}, ""},
		{"just over capacity", [][]float64{{2 * Mbps, 6 * Mbps}, {over}, {2 * Mbps}}, "Eq. 4"},
		{"rate row shorter", [][]float64{{4 * Mbps}, {4 * Mbps}, {4 * Mbps}}, "2 servers but 1 rates"},
		{"rate row longer", [][]float64{{4 * Mbps, 4 * Mbps}, {4 * Mbps, 4 * Mbps}, {4 * Mbps}}, "1 servers but 2 rates"},
		{"rates for fewer videos", [][]float64{{4 * Mbps, 4 * Mbps}, {4 * Mbps}}, "rates cover 2 videos"},
		{"zero rate", [][]float64{{4 * Mbps, 0}, {4 * Mbps}, {4 * Mbps}}, "finite and > 0"},
		{"negative rate", [][]float64{{4 * Mbps, 4 * Mbps}, {-4 * Mbps}, {4 * Mbps}}, "finite and > 0"},
		{"NaN rate", [][]float64{{4 * Mbps, 4 * Mbps}, {4 * Mbps}, {math.NaN()}}, "finite and > 0"},
		{"infinite rate", [][]float64{{math.Inf(1), 4 * Mbps}, {4 * Mbps}, {4 * Mbps}}, "finite and > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tinyLayout(t)
			l.Rates = tc.rates
			for _, x := range []*Layout{l, l.Clone()} {
				err := x.Validate(p)
				if tc.want == "" && err != nil {
					t.Fatalf("valid layout rejected: %v", err)
				}
				if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
					t.Fatalf("error %v does not mention %q", err, tc.want)
				}
			}
		})
	}
}

func TestLayoutClone(t *testing.T) {
	l := tinyLayout(t)
	c := l.Clone()
	if c.Rates != nil {
		t.Fatal("Clone of a catalog-rate layout has rates")
	}
	c.Servers[0][0] = 9
	if l.Servers[0][0] == 9 {
		t.Fatal("Clone shares state")
	}

	l.Rates = [][]float64{{2 * Mbps, 6 * Mbps}, {6 * Mbps}, {2 * Mbps}}
	c = l.Clone()
	for v := range l.Servers {
		if len(c.Rates[v]) != len(c.Servers[v]) {
			t.Fatalf("clone of video %d has %d rates for %d servers", v, len(c.Rates[v]), len(c.Servers[v]))
		}
		for k := range l.Rates[v] {
			if c.Rates[v][k] != l.Rates[v][k] {
				t.Fatalf("clone rate [%d][%d] = %g, want %g", v, k, c.Rates[v][k], l.Rates[v][k])
			}
		}
	}
	c.Rates[0][1] = Mbps
	if l.Rates[0][1] != 6*Mbps {
		t.Fatal("Clone shares rates")
	}
}

func TestZeroReplicaWeightIsZero(t *testing.T) {
	p := tinyProblem(t)
	l := NewLayout(3)
	l.Servers = [][]int{nil, {0}, {1}}
	w := l.Weights(p)
	if w[0] != 0 {
		t.Fatalf("weight of unplaced video = %g", w[0])
	}
}
