package sim

import (
	"math"
	"testing"

	"vodcluster/internal/anneal"
	"vodcluster/internal/core"
)

// scalableScenario anneals a small scalable-bit-rate layout and converts it
// for the runtime.
func scalableScenario(t testing.TB) (*anneal.BitRateProblem, *core.Layout) {
	t.Helper()
	c, err := core.NewCatalog(20, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         4,
		StoragePerServer:   20 * core.GB,
		BandwidthPerServer: 0.4 * core.Gbps,
		ArrivalRate:        3.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bp := &anneal.BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
	opts := anneal.DefaultOptions()
	opts.Seed = 12
	opts.MaxSteps = 20000
	best, _, err := bp.Optimize(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := bp.Runtime(best)
	if err != nil {
		t.Fatal(err)
	}
	return bp, layout
}

func TestCopyRatesSimulation(t *testing.T) {
	bp, layout := scalableScenario(t)
	res, err := Run(Config{Problem: bp.P, Layout: layout, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no arrivals")
	}
	// The annealer raises rates above the 2 Mb/s floor, and the measured
	// session quality must reflect the copies actually served: strictly
	// above the floor, at most the ceiling.
	if res.MeanSessionRateMbps <= 2 || res.MeanSessionRateMbps > 8 {
		t.Fatalf("mean session rate %.2f Mb/s outside (2, 8]", res.MeanSessionRateMbps)
	}
	// Analytic mean rate (weighted by copies, not popularity) and measured
	// (popularity-weighted) differ, but both live between the set's ends.
	e := bp.Evaluate(mustLayout(t, bp, layout))
	if e.MeanRateMbps <= 2 {
		t.Fatalf("annealed analytic mean rate %.2f did not move off the floor", e.MeanRateMbps)
	}
}

// mustLayout reconstructs the BitRateLayout from runtime form for
// re-evaluation; it keeps the test honest about the conversion being
// lossless.
func mustLayout(t *testing.T, bp *anneal.BitRateProblem, layout *core.Layout) *anneal.BitRateLayout {
	t.Helper()
	l := anneal.NewBitRateLayout(bp.P.M(), bp.P.N())
	for v, servers := range layout.Servers {
		for k, s := range servers {
			r := layout.Rates[v][k]
			idx := -1
			for i, setRate := range bp.RateSet {
				if math.Abs(setRate-r) < 1 {
					idx = i
				}
			}
			if idx == -1 {
				t.Fatalf("rate %g not in the set", r)
			}
			l.SetRate(v, s, int16(idx))
		}
	}
	return l
}

func TestCopyRatesFixedSetMatchesPlainRun(t *testing.T) {
	// Copy rates equal to the catalog rate must reproduce the plain run
	// exactly: same admissions, same metrics.
	p, layout := buildScenario(t, 9, 1.2)
	rated := layout.Clone()
	rated.Rates = make([][]float64, p.M())
	for v, servers := range rated.Servers {
		for range servers {
			rated.Rates[v] = append(rated.Rates[v], p.Catalog[v].BitRate)
		}
	}
	plain, err := Run(Config{Problem: p, Layout: layout, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	withRates, err := Run(Config{Problem: p, Layout: rated, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rejected != withRates.Rejected || plain.Accepted != withRates.Accepted {
		t.Fatalf("uniform copy rates changed the outcome: %+v vs %+v", plain, withRates)
	}
	if math.Abs(withRates.MeanSessionRateMbps-4) > 1e-9 {
		t.Fatalf("session rate %.3f, want exactly 4", withRates.MeanSessionRateMbps)
	}
}
