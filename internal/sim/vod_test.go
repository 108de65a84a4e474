package sim

import (
	"math"
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/workload"
)

// buildScenario returns the paper cluster (scaled down to keep tests fast)
// with a Zipf+SLF layout at the given degree.
func buildScenario(t testing.TB, lambdaPerMin, degree float64) (*core.Problem, *core.Layout) {
	t.Helper()
	c, err := core.NewCatalog(50, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	capPer := int(math.Ceil(degree * 50 / 4))
	p := &core.Problem{
		Catalog:            c,
		NumServers:         4,
		StoragePerServer:   float64(capPer) * c[0].SizeBytes(),
		BandwidthPerServer: 0.9 * core.Gbps, // 225 streams/server, saturation 10/min
		ArrivalRate:        lambdaPerMin / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	budget, err := p.TargetTotalReplicas(degree)
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := replicate.ZipfInterval{}.Replicate(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return p, layout
}

func TestRunRequiresProblemAndLayout(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	p, _ := buildScenario(t, 5, 1.2)
	if _, err := Run(Config{Problem: p}); err == nil {
		t.Fatal("missing layout accepted")
	}
}

func TestRunLightLoadNoRejections(t *testing.T) {
	p, layout := buildScenario(t, 2, 1.2) // 20% of saturation
	res, err := Run(Config{Problem: p, Layout: layout, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Rejected != 0 {
		t.Fatalf("light load rejected %d of %d", res.Rejected, res.Requests)
	}
	if res.Accepted != res.Requests {
		t.Fatal("accepted+rejected != requests")
	}
	// Expected arrivals: 2/min × 90 min = 180 ± statistical noise.
	if res.Requests < 120 || res.Requests > 260 {
		t.Fatalf("arrival count %d implausible for λ=2/min over 90 min", res.Requests)
	}
}

func TestRunOverloadRejects(t *testing.T) {
	p, layout := buildScenario(t, 20, 1.2) // 2× saturation
	res, err := Run(Config{Problem: p, Layout: layout, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectionRate < 0.2 {
		t.Fatalf("2× overload rejected only %.1f%%", 100*res.RejectionRate)
	}
	if res.PeakConcurrent > 900 {
		t.Fatalf("peak concurrent %d exceeds cluster stream capacity 900", res.PeakConcurrent)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	a, err := Run(Config{Problem: p, Layout: layout, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Problem: p, Layout: layout, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Rejected != b.Rejected || a.ImbalanceAvg != b.ImbalanceAvg {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(Config{Problem: p, Layout: layout, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests == c.Requests && a.Rejected == c.Rejected && a.ImbalanceAvg == c.ImbalanceAvg {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestRunServedPerServerSumsToAccepted(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.5)
	res, err := Run(Config{Problem: p, Layout: layout, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range res.ServedPerServer {
		sum += c
	}
	if sum != res.Accepted {
		t.Fatalf("per-server served sums to %d, accepted %d", sum, res.Accepted)
	}
}

func TestRunTraceReplay(t *testing.T) {
	p, layout := buildScenario(t, 5, 1.2)
	gen, err := workload.NewGenerator(workload.NewPoissonPerMinute(5), p.M(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(p.PeakPeriod, 9)
	res, err := Run(Config{Problem: p, Layout: layout, Trace: tr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(tr.Requests) {
		t.Fatalf("replayed %d of %d trace requests", res.Requests, len(tr.Requests))
	}
	// Replaying the same trace must be fully deterministic regardless of
	// the seed (no online randomness remains).
	res2, err := Run(Config{Problem: p, Layout: layout, Trace: tr, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != res2.Rejected || res.ImbalanceAvg != res2.ImbalanceAvg {
		t.Fatal("trace replay depends on the seed")
	}
}

func TestRunTraceRejectsForeignVideos(t *testing.T) {
	p, layout := buildScenario(t, 5, 1.2)
	tr := &workload.Trace{Requests: []workload.Request{{Time: 1, Video: p.M() + 3}}}
	if _, err := Run(Config{Problem: p, Layout: layout, Trace: tr}); err == nil {
		t.Fatal("trace with out-of-catalog video accepted")
	}
}

func TestRunCustomSchedulerFactory(t *testing.T) {
	p, layout := buildScenario(t, 12, 1.2)
	resRR, err := Run(Config{Problem: p, Layout: layout, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resLL, err := Run(Config{
		Problem: p, Layout: layout, Seed: 3,
		NewScheduler: func() cluster.Scheduler { return cluster.LeastLoaded{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Least-loaded dominates static RR at moderate overload.
	if resLL.RejectionRate > resRR.RejectionRate+1e-9 {
		t.Fatalf("least-loaded (%.3f) worse than static RR (%.3f)",
			resLL.RejectionRate, resRR.RejectionRate)
	}
}

func TestRunNoArrivalRateFails(t *testing.T) {
	p, layout := buildScenario(t, 5, 1.2)
	q := p.Clone()
	q.ArrivalRate = 0
	if _, err := Run(Config{Problem: q, Layout: layout}); err == nil {
		t.Fatal("zero arrival rate with no trace accepted")
	}
}

func TestRunManyAggregates(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	agg, results, err := RunMany(Config{Problem: p, Layout: layout, Seed: 4}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs() != 6 || len(results) != 6 {
		t.Fatalf("runs = %d, results = %d", agg.Runs(), len(results))
	}
	// Runs must differ (different derived seeds).
	allSame := true
	for _, r := range results[1:] {
		if r.Requests != results[0].Requests {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("replications look identical; seed derivation broken")
	}
}

func TestRunManyDeterministicAggregate(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	a, _, err := RunMany(Config{Problem: p, Layout: layout, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunMany(Config{Problem: p, Layout: layout, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.RejectionRate.Mean() != b.RejectionRate.Mean() ||
		a.ImbalanceAvg.Mean() != b.ImbalanceAvg.Mean() {
		t.Fatal("parallel RunMany not deterministic")
	}
}

func TestRunManyValidation(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	if _, _, err := RunMany(Config{Problem: p, Layout: layout}, 0); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, _, err := RunMany(Config{}, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// BenchmarkSimPeakPeriod is the developer's view of the benchmark's
// fig4_sweep workload: whole peak periods through Run, reported as simulated
// events per second. "equal" is the paper's model, where every departure
// takes the engine's lane; "mixed" has two session lengths and works the heap.
func BenchmarkSimPeakPeriod(b *testing.B) {
	ep, elayout := buildScenario(b, 10, 1.2)
	mp, mlayout := mixedScenario(b)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"equal", Config{Problem: ep, Layout: elayout}},
		{"mixed", Config{Problem: mp, Layout: mlayout}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

func TestWarmupDiscardsTransient(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	full, err := Run(Config{Problem: p, Layout: layout, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := Run(Config{Problem: p, Layout: layout, Seed: 4, Warmup: 30 * core.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if warmed.Requests >= full.Requests {
		t.Fatalf("warmup did not discard early arrivals: %d vs %d", warmed.Requests, full.Requests)
	}
	if warmed.Requests == 0 {
		t.Fatal("warmup discarded everything")
	}
	// The empty-cluster transient keeps mean utilization low in the full
	// measurement; discarding it must raise the reported figure.
	if warmed.MeanUtilization <= full.MeanUtilization {
		t.Fatalf("warmed utilization %g not above full-window %g",
			warmed.MeanUtilization, full.MeanUtilization)
	}
	if _, err := Run(Config{Problem: p, Layout: layout, Warmup: -1}); err == nil {
		t.Fatal("negative warmup accepted")
	}
}
