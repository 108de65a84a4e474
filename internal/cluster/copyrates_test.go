package cluster

import (
	"testing"

	"vodcluster/internal/core"
)

// ratesFor gives the test layout (v0 on {0,1}, v1 on {0}, v2 on {1}) the
// given per-copy rates.
func ratesFor(l *core.Layout, r00, r01, r10, r21 float64) *core.Layout {
	l.Rates = [][]float64{{r00, r01}, {r10}, {r21}}
	return l
}

func TestCopyRatesAccounting(t *testing.T) {
	p := testProblem(t, 0)
	p.StoragePerServer = 7 * core.GB // room for the mixed sizes below
	// v0 at 2 Mb/s on s0 and 6 Mb/s on s1; v1 at 4, v2 at 4.
	l := ratesFor(testLayout(t), 2*core.Mbps, 6*core.Mbps, 4*core.Mbps, 4*core.Mbps)
	st, err := New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if st.RateOf(0, 0) != 2*core.Mbps || st.RateOf(0, 1) != 6*core.Mbps {
		t.Fatal("RateOf ignores the layout's rates")
	}
	// Storage accounting uses per-copy sizes: s0 = (2+4) Mb/s × 90 min / 8.
	wantS0 := (2 + 4) * core.Mbps * 90 * core.Minute / 8
	if got := st.StorageUsed(0); got < wantS0-1 || got > wantS0+1 {
		t.Fatalf("storage on s0 = %g, want %g", got, wantS0)
	}
	// Admission charges the serving copy's rate.
	id, ok := st.Admit(0, StaticRoundRobin{})
	if !ok {
		t.Fatal("admit failed")
	}
	s, _ := st.Lookup(id)
	if s.Rate != st.RateOf(0, s.Server) {
		t.Fatalf("stream rate %g, want the copy's %g", s.Rate, st.RateOf(0, s.Server))
	}
	if st.UsedBandwidth(s.Server) != s.Rate {
		t.Fatal("bandwidth charged at the wrong rate")
	}
}

func TestCopyRatesBandwidthBoundary(t *testing.T) {
	p := testProblem(t, 0) // 10 Mb/s links
	p.StoragePerServer = 8 * core.GB
	// v1's only copy runs at 6 Mb/s: one stream fits, two exceed 10 Mb/s.
	l := ratesFor(testLayout(t), 2*core.Mbps, 2*core.Mbps, 6*core.Mbps, 2*core.Mbps)
	st, err := New(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Admit(1, StaticRoundRobin{}); !ok {
		t.Fatal("first 6 Mb/s stream refused")
	}
	if _, ok := st.Admit(1, StaticRoundRobin{}); ok {
		t.Fatal("second 6 Mb/s stream exceeded the 10 Mb/s link")
	}
}
