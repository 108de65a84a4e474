package vodcluster_test

// Benchmarks mirroring the paper's evaluation: one benchmark per figure
// (4, 5, 6), plus the §4.3 annealing experiment, the §6 redirection
// experiment, and ablation benches for the layout-construction pipeline.
// Each figure bench simulates one representative data point of the figure
// per iteration and reports the measured headline metric via
// b.ReportMetric, so `go test -bench .` regenerates the numbers next to the
// timing. The full sweeps (all sub-plots, all points, 20 replications) live
// in cmd/vodbench.

import (
	"fmt"
	"testing"

	"vodcluster"
	"vodcluster/internal/anneal"
	"vodcluster/internal/avail"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/disk"
	"vodcluster/internal/dynrep"
	"vodcluster/internal/exp"
	"vodcluster/internal/sim"
	"vodcluster/internal/workload"
)

// benchPoint runs one (θ, degree, combo, λ) cell and returns mean rejection
// rate and mean imbalance over `runs` replications.
func benchPoint(b *testing.B, theta, degree float64, repl, plac string, lambdaPerMin float64, runs int) (rej, imb float64) {
	b.Helper()
	agg := aggregateAt(b, comboScenario(theta, degree, repl, plac), lambdaPerMin, runs)
	return agg.RejectionRate.Mean(), agg.ImbalanceAvg.Mean()
}

// BenchmarkFig4RejectionByDegree regenerates Figure 4's headline cells:
// rejection rate at saturation (λ=40/min) for each replication degree under
// Zipf replication + smallest-load-first placement, θ = 0.75.
func BenchmarkFig4RejectionByDegree(b *testing.B) {
	for _, degree := range []float64{1.0, 1.2, 1.6, 2.0} {
		b.Run(fmt.Sprintf("degree=%.1f", degree), func(b *testing.B) {
			var rej float64
			for i := 0; i < b.N; i++ {
				rej, _ = benchPoint(b, 0.75, degree, "zipf", "slf", 40, 3)
			}
			b.ReportMetric(100*rej, "reject%")
		})
	}
}

// BenchmarkFig4Sweep measures one Figure-4(a)-style sweep end to end on the
// experiment harness — the quick grid (3 degrees × 3 arrival rates × 3
// replications) — sequentially and with parallel workers. The CI bench-smoke
// step runs this once per push.
func BenchmarkFig4Sweep(b *testing.B) {
	series := make([]exp.Series, 0, 3)
	for _, degree := range []float64{1.0, 1.4, 2.0} {
		s := config.Paper()
		s.Degree = degree
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			b.Fatal(err)
		}
		series = append(series, exp.ArrivalSeries(fmt.Sprintf("deg %.1f", degree),
			sim.Config{Problem: p, Layout: layout, NewScheduler: sched}))
	}
	for _, workers := range []int{1, 0} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			var rej float64
			for i := 0; i < b.N; i++ {
				sweep := &exp.Sweep{
					Xs: []float64{16, 32, 40}, Series: series,
					Runs: 3, Seed: 42, Workers: workers,
				}
				grid, err := sweep.Run()
				if err != nil {
					b.Fatal(err)
				}
				rej = exp.RejectionPct(grid[0][2])
			}
			b.ReportMetric(rej, "reject%")
		})
	}
}

// BenchmarkFig5RejectionByCombo regenerates Figure 5(a): rejection rate at
// saturation for the four algorithm combinations at degree 1.2, θ = 0.75.
func BenchmarkFig5RejectionByCombo(b *testing.B) {
	combos := []struct{ repl, plac string }{
		{"zipf", "slf"},
		{"zipf", "roundrobin"},
		{"classification", "slf"},
		{"classification", "roundrobin"},
	}
	for _, c := range combos {
		b.Run(c.repl+"+"+c.plac, func(b *testing.B) {
			var rej float64
			for i := 0; i < b.N; i++ {
				rej, _ = benchPoint(b, 0.75, 1.2, c.repl, c.plac, 40, 3)
			}
			b.ReportMetric(100*rej, "reject%")
		})
	}
}

// BenchmarkFig6ImbalanceByCombo regenerates Figure 6(a): the measured load
// imbalance degree L at mid load (λ=32/min), degree 1.2, θ = 0.75.
func BenchmarkFig6ImbalanceByCombo(b *testing.B) {
	combos := []struct{ repl, plac string }{
		{"zipf", "slf"},
		{"classification", "roundrobin"},
	}
	for _, c := range combos {
		b.Run(c.repl+"+"+c.plac, func(b *testing.B) {
			var imb float64
			for i := 0; i < b.N; i++ {
				_, imb = benchPoint(b, 0.75, 1.2, c.repl, c.plac, 32, 3)
			}
			b.ReportMetric(100*imb, "L%")
		})
	}
}

// BenchmarkSAScalableBitrate regenerates the §4.3 experiment: simulated
// annealing over the rate set {2,4,6,8} Mb/s on the paper cluster, reporting
// the achieved Eq. 1 objective.
func BenchmarkSAScalableBitrate(b *testing.B) {
	s := config.Paper()
	s.StorageGB = 50
	p, err := s.Problem()
	if err != nil {
		b.Fatal(err)
	}
	bp := &anneal.BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
	opts := anneal.DefaultOptions()
	opts.MaxSteps = 30_000
	var obj float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		_, e, err := bp.Optimize(opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		obj = e.Objective
	}
	b.ReportMetric(obj, "objective")
}

// BenchmarkRedirection regenerates the §6 experiment: rejection at
// saturation with and without a 2 Gb/s backbone.
func BenchmarkRedirection(b *testing.B) {
	for _, backbone := range []float64{0, 2} {
		b.Run(fmt.Sprintf("backbone=%gGbps", backbone), func(b *testing.B) {
			s := config.Paper()
			s.Degree = 1.2
			s.BackboneGbps = backbone
			p, layout, sched, err := vodcluster.Pipeline(s)
			if err != nil {
				b.Fatal(err)
			}
			var rej float64
			for i := 0; i < b.N; i++ {
				agg, _, err := sim.RunMany(sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Seed: int64(i)}, 3)
				if err != nil {
					b.Fatal(err)
				}
				rej = agg.RejectionRate.Mean()
			}
			b.ReportMetric(100*rej, "reject%")
		})
	}
}

// BenchmarkBuildLayout is the ablation bench for layout construction cost:
// every replicator × the two paper placers on the paper instance, and again
// under M=20000,N=64 on the benchmark's plan_scale instance (20 000 titles on
// 64 servers), where the replication and placement passes are O(M) and more.
func BenchmarkBuildLayout(b *testing.B) {
	paper, err := config.Paper().Problem()
	if err != nil {
		b.Fatal(err)
	}
	s := config.Paper()
	s.Videos, s.Servers, s.LambdaPerMin = 20000, 64, 240
	scale, err := s.Problem()
	if err != nil {
		b.Fatal(err)
	}
	combos := func(b *testing.B, p *core.Problem) {
		for _, rn := range []string{"adams", "zipf", "classification", "uniform"} {
			for _, pn := range []string{"slf", "roundrobin"} {
				b.Run(rn+"+"+pn, func(b *testing.B) {
					r, err := vodcluster.ReplicatorByName(rn)
					if err != nil {
						b.Fatal(err)
					}
					pl, err := vodcluster.PlacerByName(pn)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := vodcluster.BuildLayout(p, r, pl, 1.2); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	combos(b, paper)
	b.Run("M=20000,N=64", func(b *testing.B) { combos(b, scale) })
}

// BenchmarkSimulatedPeakPeriod measures the raw simulator throughput on the
// paper instance at saturation: one 90-minute peak period per iteration
// (~3600 arrivals, ~7200 events).
func BenchmarkSimulatedPeakPeriod(b *testing.B) {
	s := config.Paper()
	s.Degree = 1.2
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvailability regenerates the availability experiment point:
// session failure rate at degree 1.2 under MTBF 10 h / MTTR 30 min failures.
func BenchmarkAvailability(b *testing.B) {
	s := config.Paper()
	s.Degree = 1.2
	s.LambdaPerMin = 32
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		b.Fatal(err)
	}
	f := &avail.FailureModel{MTBF: 10 * core.Hour, MTTR: 30 * core.Minute}
	var rate float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, _, err := sim.RunMany(sim.Config{
			Problem: p, Layout: layout, NewScheduler: sched,
			Failures: f, Seed: int64(i),
		}, 3)
		if err != nil {
			b.Fatal(err)
		}
		rate = agg.FailureRate.Mean()
	}
	b.ReportMetric(100*rate, "failure%")
}

// BenchmarkDynamicReplication regenerates the popularity-shift experiment
// point: rejection with the runtime manager adapting mid-period.
func BenchmarkDynamicReplication(b *testing.B) {
	s := config.Paper()
	s.Degree = 1.2
	s.BackboneGbps = 2
	p, layout, _, err := vodcluster.Pipeline(s)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.NewPoissonPerMinute(40), p.M(), s.Theta)
	if err != nil {
		b.Fatal(err)
	}
	newManager, err := dynrep.NewFactory(p, dynrep.Options{IntervalSec: 300, MaxPerTick: 4})
	if err != nil {
		b.Fatal(err)
	}
	var rej float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := gen.Generate(p.PeakPeriod, int64(i))
		shifted, err := tr.Remap(workload.RotationMapping(p.M(), p.M()/2), p.PeakPeriod/2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Problem: p, Layout: layout, Trace: shifted, Seed: int64(i),
			NewController: func() sim.Controller { return newManager() },
		})
		if err != nil {
			b.Fatal(err)
		}
		rej = res.RejectionRate
	}
	b.ReportMetric(100*rej, "reject%")
}

// BenchmarkHeteroPlacement regenerates the heterogeneous-cluster experiment
// point: rejection at saturation for each placement policy on crossed tiers.
func BenchmarkHeteroPlacement(b *testing.B) {
	for _, placer := range []string{"slf", "wslf", "bsr"} {
		b.Run(placer, func(b *testing.B) {
			s := config.Paper()
			s.Servers = 8
			s.ServerBandwidthGbps = []float64{2.4, 2.4, 2.4, 2.4, 1.2, 1.2, 1.2, 1.2}
			s.ServerStorageGB = []float64{27, 27, 27, 27, 54, 54, 54, 54}
			s.Degree = 1.2
			s.Placer = placer
			p, layout, sched, err := vodcluster.Pipeline(s)
			if err != nil {
				b.Fatal(err)
			}
			var rej float64
			for i := 0; i < b.N; i++ {
				agg, _, err := sim.RunMany(sim.Config{
					Problem: p, Layout: layout, NewScheduler: sched, Seed: int64(i),
				}, 3)
				if err != nil {
					b.Fatal(err)
				}
				rej = agg.RejectionRate.Mean()
			}
			b.ReportMetric(100*rej, "reject%")
		})
	}
}

// BenchmarkDiskStreamLimit regenerates the disk experiment point: rejection
// at saturation when a degraded 8-disk RAID-5 caps each server's streams.
func BenchmarkDiskStreamLimit(b *testing.B) {
	d := disk.Disk{CapacityBytes: 36 * core.GB, SeekMs: 8, TransferMBps: 40}
	a, err := disk.NewArray(d, 8, disk.RAID5)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Fail(0); err != nil {
		b.Fatal(err)
	}
	limit := a.StreamCapacity(4*core.Mbps, 2)
	s := config.Paper()
	s.Degree = 1.2
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		b.Fatal(err)
	}
	var rej float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Problem: p, Layout: layout, NewScheduler: sched,
			StreamLimit: limit, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rej = res.RejectionRate
	}
	b.ReportMetric(100*rej, "reject%")
}
