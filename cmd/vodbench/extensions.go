package main

import (
	"fmt"

	"vodcluster"
	"vodcluster/internal/analytic"
	"vodcluster/internal/anneal"
	"vodcluster/internal/avail"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/disk"
	"vodcluster/internal/dynrep"
	"vodcluster/internal/exp"
	"vodcluster/internal/hierarchy"
	"vodcluster/internal/place"
	"vodcluster/internal/report"
	"vodcluster/internal/sim"
	"vodcluster/internal/stats"
	"vodcluster/internal/striped"
	"vodcluster/internal/workload"
)

// figureAvail exercises the paper's availability motivation (§1, §3.2):
// under server failures, the replication degree buys session survival.
// It reports the measured failure rate (rejected + dropped sessions) per
// degree together with the analytic unavailable-request mass Σ p_i·u^{r_i}.
func figureAvail(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Availability: session failure rate vs replication degree under server failures ===\n")
	f := &avail.FailureModel{MTBF: 10 * core.Hour, MTTR: 30 * core.Minute}
	cfg.emit.Printf("failure model: MTBF %.1f h, MTTR %.0f min → server availability %.4f\n",
		f.MTBF/core.Hour, f.MTTR/core.Minute, f.Availability())
	degrees := degreeSweep
	if cfg.quick {
		degrees = degreeSweepQuick
	}
	// The analytic column needs each degree's problem and layout; Config runs
	// on the coordinating goroutine in x order, so stashing them is safe.
	type cell struct {
		p      *core.Problem
		layout *core.Layout
	}
	cells := make([]cell, 0, len(degrees))
	ser := exp.Series{Name: "availability", Config: func(degree float64) (sim.Config, error) {
		s := config.Paper()
		s.Degree = degree
		s.LambdaPerMin = 32 // below saturation so failures, not capacity, dominate
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			return sim.Config{}, err
		}
		cells = append(cells, cell{p, layout})
		return sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Failures: f}, nil
	}}
	sw := cfg.sweep(degrees, []exp.Series{ser})
	// Every degree runs against the same workload and failure draws: the
	// pre-harness loop passed one seed to each degree's replications.
	sw.PointSeed = func(int) int64 { return cfg.seed }
	grid, err := sw.Run()
	if err != nil {
		return err
	}
	t := report.NewTable("degree", "rejected %", "dropped/run", "failure rate %", "analytic unavailable %")
	for xi, degree := range degrees {
		pt := grid[0][xi]
		analytic := avail.UnavailableRequestMass(cells[xi].p, cells[xi].layout, f.Unavailability())
		t.AddRowf(degree,
			exp.RejectionPct(pt),
			pt.Agg.Dropped.Mean(),
			exp.FailurePct(pt),
			100*analytic)
	}
	if err := cfg.emit.Table("availability", t); err != nil {
		return err
	}
	cfg.emit.Printf("replication's availability value: the analytic unavailable mass falls\n")
	cfg.emit.Printf("geometrically with the degree, and the measured failure rate follows.\n")
	return nil
}

// figureDynamic runs the popularity-shift experiment: the layout is planned
// for the initial ranking, the ranking rotates by M/2 halfway through the
// peak period, and runtime dynamic replication (paper §4.1.2, §6) migrates
// replicas over the backbone to chase the new hot set.
func figureDynamic(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Dynamic replication under a mid-period popularity shift ===\n")
	s := config.Paper()
	s.Degree = 1.2
	s.BackboneGbps = 2
	p, layout, _, err := vodcluster.Pipeline(s)
	if err != nil {
		return err
	}
	// Overload slightly so the misplaced layout visibly rejects.
	lambda := 40.0
	gen, err := workload.NewGenerator(workload.NewPoissonPerMinute(lambda), p.M(), s.Theta)
	if err != nil {
		return err
	}
	newManager, err := dynrep.NewFactory(p, dynrep.Options{IntervalSec: 300, MaxPerTick: 4})
	if err != nil {
		return err
	}

	// The experiment replays one shifted trace per run index, so the swept x
	// is the run index itself and each point is a single replication. Both
	// policies replay identical traces (common random numbers); the sim seed
	// is irrelevant under trace replay without failures or resilience.
	runIdx := make([]float64, cfg.runs)
	for i := range runIdx {
		runIdx[i] = float64(i)
	}
	mgrs := make([]*dynrep.Manager, cfg.runs)
	series := make([]exp.Series, 0, 2)
	for _, dynamic := range []bool{false, true} {
		dynamic := dynamic
		name := "static layout"
		if dynamic {
			name = "dynamic replication"
		}
		series = append(series, exp.Series{Name: name, Config: func(x float64) (sim.Config, error) {
			run := int(x)
			tr := gen.Generate(p.PeakPeriod, cfg.seed+int64(run))
			shifted, err := tr.Remap(workload.RotationMapping(p.M(), p.M()/2), p.PeakPeriod/2)
			if err != nil {
				return sim.Config{}, err
			}
			rc := sim.Config{Problem: p, Layout: layout, Trace: shifted}
			if dynamic {
				rc.NewController = func() sim.Controller {
					m := newManager()
					mgrs[run] = m
					return m
				}
			}
			return rc, nil
		}})
	}
	sw := cfg.sweep(runIdx, series)
	sw.Runs = 1
	grid, err := sw.Run()
	if err != nil {
		return err
	}

	t := report.NewTable("policy", "rejected %", "± 95% CI", "migrations/run")
	for si, ser := range series {
		var rej, mig stats.Summary
		for xi := range runIdx {
			rej.Add(grid[si][xi].Results[0].RejectionRate)
		}
		if ser.Name == "dynamic replication" {
			for _, m := range mgrs {
				mig.Add(float64(m.Migrations()))
			}
		}
		t.AddRowf(ser.Name, 100*rej.Mean(), 100*rej.CI95(), mig.Mean())
	}
	return cfg.emit.Table("dynamic-replication", t)
}

// figureDisk checks the paper's modeling assumption that the outgoing
// network link, not disk I/O, binds admission — and shows the striping
// granularity ablation ("striping doesn't scale") on the per-server array.
func figureDisk(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Disk subsystem: bottleneck check and striping granularity ===\n")
	d := disk.Disk{CapacityBytes: 36 * core.GB, SeekMs: 8, TransferMBps: 40}
	round := 2.0 // seconds per retrieval round
	t := report.NewTable("array", "usable GB", "disk streams", "net streams", "bottleneck")
	for _, n := range []int{4, 8, 16} {
		for _, scheme := range []disk.Scheme{disk.RAID0, disk.RAID5} {
			a, err := disk.NewArray(d, n, scheme)
			if err != nil {
				return err
			}
			streams, diskBound := disk.BottleneckStreams(a, 1.8*core.Gbps, 4*core.Mbps, round)
			b := "network"
			if diskBound {
				b = "disk"
			}
			t.AddRowf(fmt.Sprintf("%d× %s (coarse)", n, scheme),
				a.UsableBytes()/core.GB, a.StreamCapacity(4*core.Mbps, round), 450, b)
			_ = streams
		}
	}
	fine, err := disk.NewArray(d, 16, disk.RAID5)
	if err != nil {
		return err
	}
	fine.SetGranularity(disk.FineGrained)
	_, diskBound := disk.BottleneckStreams(fine, 1.8*core.Gbps, 4*core.Mbps, round)
	b := "network"
	if diskBound {
		b = "disk"
	}
	t.AddRowf("16× raid5 (fine)", fine.UsableBytes()/core.GB,
		fine.StreamCapacity(4*core.Mbps, round), 450, b)
	if err := cfg.emit.Table("disk-bottleneck", t); err != nil {
		return err
	}

	// Degraded-mode effect on the simulated cluster: cap each server's
	// concurrent streams at a degraded 8-disk RAID5's capacity.
	a, err := disk.NewArray(d, 8, disk.RAID5)
	if err != nil {
		return err
	}
	if err := a.Fail(0); err != nil {
		return err
	}
	s := config.Paper()
	s.Degree = 1.2
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		return err
	}
	limit := a.StreamCapacity(4*core.Mbps, round)
	ser := exp.Series{Name: "admission", Config: func(cap float64) (sim.Config, error) {
		return sim.Config{
			Problem: p, Layout: layout, NewScheduler: sched,
			StreamLimit: int(cap),
		}, nil
	}}
	sw := cfg.sweep([]float64{0, float64(limit)}, []exp.Series{ser})
	sw.PointSeed = func(int) int64 { return cfg.seed } // same workload either way
	grid, err := sw.Run()
	if err != nil {
		return err
	}
	t2 := report.NewTable("admission model", "rejected % at λ=40")
	for xi, pt := range grid[0] {
		name := "network only (paper)"
		if xi > 0 {
			name = fmt.Sprintf("degraded RAID5 cap (%d streams)", limit)
		}
		t2.AddRowf(name, exp.RejectionPct(pt))
	}
	cfg.emit.Printf("\n")
	return cfg.emit.Table("disk-admission", t2)
}

// figureHetero evaluates placement on a heterogeneous cluster — the
// generalization the paper's homogeneous model invites. Two hardware tiers
// with crossed resources (bandwidth-rich/space-poor vs the reverse) serve
// the paper workload; the experiment compares the paper's SLF against its
// bandwidth-weighted generalization, the BSR heuristic of Dan & Sitaram that
// the related-work section cites, and round-robin.
func figureHetero(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Heterogeneous cluster: placement policies on crossed hardware tiers ===\n")
	s := config.Paper()
	s.Servers = 8
	// Crossed tiers with the same aggregate resources as the paper cluster:
	// 4 streaming boxes (2.4 Gb/s, 10 replicas) + 4 archive boxes
	// (1.2 Gb/s, 20 replicas) = 14.4 Gb/s and 120 replicas.
	s.ServerBandwidthGbps = []float64{2.4, 2.4, 2.4, 2.4, 1.2, 1.2, 1.2, 1.2}
	s.ServerStorageGB = []float64{27, 27, 27, 27, 54, 54, 54, 54}
	s.Degree = 1.2
	lambdas := []float64{24, 32, 36, 40}
	if cfg.quick {
		lambdas = []float64{32, 40}
	}
	placers := []string{"slf", "wslf", "bsr", "roundrobin"}
	relImb := make([]float64, 0, len(placers))
	series := make([]exp.Series, 0, len(placers))
	for _, placer := range placers {
		s.Placer = placer
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			return fmt.Errorf("hetero %s: %w", placer, err)
		}
		relImb = append(relImb, place.RelativeImbalance(p, layout))
		series = append(series, exp.ArrivalSeries(placer, sim.Config{Problem: p, Layout: layout, NewScheduler: sched}))
	}
	grid, err := cfg.sweep(lambdas, series).Run()
	if err != nil {
		return err
	}
	t := report.NewTable(append([]string{"placer", "rel. imbalance"}, lambdaLabels(lambdas)...)...)
	for si, placer := range placers {
		row := make([]any, 0, len(lambdas)+2)
		row = append(row, placer, relImb[si])
		for xi := range lambdas {
			row = append(row, exp.RejectionPct(grid[si][xi]))
		}
		t.AddRowf(row...)
	}
	if err := cfg.emit.Table("heterogeneous", t); err != nil {
		return err
	}
	cfg.emit.Printf("rejection columns are %% at each arrival rate. Both resource-aware\n")
	cfg.emit.Printf("policies (wslf, bsr) dominate the resource-blind ones (slf, roundrobin);\n")
	cfg.emit.Printf("bsr's hot-content-to-fast-server matching additionally shelters the\n")
	cfg.emit.Printf("heaviest replicas from static-RR burstiness, winning on admission.\n")
	return nil
}

func lambdaLabels(lambdas []float64) []string {
	out := make([]string, len(lambdas))
	for i, l := range lambdas {
		out[i] = fmt.Sprintf("rej%% λ=%g", l)
	}
	return out
}

// figureHierarchy reproduces the predecessor media-mapping experiment
// (Zhou/Lüling/Xie, whose SA the paper's §4.3 reuses): map a catalog onto a
// three-level server tree and compare the root-only, greedy top-popularity,
// and simulated-annealing mappings — globally shared taste and regional
// (per-leaf rotated) taste.
func figureHierarchy(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Hierarchical server network: media mapping (predecessor work) ===\n")
	c, err := core.NewCatalog(100, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		return err
	}
	size := c[0].SizeBytes()
	topo, err := hierarchy.NewUniformTree(2, []hierarchy.Node{
		{StorageBytes: 110 * size, StreamBW: 20 * core.Gbps},
		{StorageBytes: 30 * size, StreamBW: 4 * core.Gbps, UplinkBW: 4 * core.Gbps},
		{StorageBytes: 12 * size, StreamBW: 2 * core.Gbps, UplinkBW: 2 * core.Gbps},
	})
	if err != nil {
		return err
	}
	rates := make([]float64, len(topo.Leaves()))
	for i := range rates {
		rates[i] = 5.0 / core.Minute
	}

	for _, regional := range []bool{false, true} {
		p := &hierarchy.Problem{Topo: topo, Catalog: c, LeafRate: rates}
		label := "global taste"
		if regional {
			label = "regional taste (per-leaf rotated ranking)"
			pops := make([][]float64, len(rates))
			for li := range pops {
				pops[li] = make([]float64, len(c))
				for v := range c {
					pops[li][v] = c[(v+li*25)%len(c)].Popularity
				}
			}
			p.LeafPopularity = pops
		}
		if err := p.Validate(); err != nil {
			return err
		}

		opts := anneal.DefaultOptions()
		opts.InitialTemp = 0.5
		opts.Seed = cfg.seed
		chains := 4
		if cfg.quick {
			opts.MaxSteps = 15_000
			chains = 1
		}
		best, saEval, err := hierarchy.Optimize(p, opts, chains)
		if err != nil {
			return err
		}
		_ = best

		t := report.NewTable("mapping", "local hit %", "mean hops", "max link util", "max node util")
		for _, row := range []struct {
			name string
			e    hierarchy.Eval
		}{
			{"root only", p.Evaluate(hierarchy.NewMapping(p))},
			{"greedy top-popularity", p.Evaluate(hierarchy.GreedyMapping(p))},
			{"simulated annealing", saEval},
		} {
			t.AddRowf(row.name, 100*row.e.LocalHitRatio, row.e.MeanHops, row.e.MaxLinkUtil, row.e.MaxNodeUtil)
		}
		name := "hierarchy-global"
		if regional {
			name = "hierarchy-regional"
		}
		cfg.emit.Printf("\n--- %s ---\n", label)
		if err := cfg.emit.Table(name, t); err != nil {
			return err
		}
	}
	cfg.emit.Printf("\nthe SA mapping removes the duplication the greedy baseline creates along\n")
	cfg.emit.Printf("every root-leaf path and specializes leaf caches under regional taste.\n")
	return nil
}

// figureStriping quantifies the §1 architectural argument: wide striping
// across servers balances perfectly (beating replication on rejection while
// healthy) but fails catastrophically, while the replicated cluster degrades
// gracefully. Failure intensity sweeps from none to harsh. The striped
// simulator is its own engine (internal/striped), so this figure keeps its
// replication loop instead of the sim-only exp harness.
func figureStriping(cfg benchConfig) error {
	cfg.emit.Printf("\n=== §1: replication vs wide striping across servers ===\n")
	s := config.Paper()
	s.Degree = 1.4
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		return err
	}
	q := p.Clone()
	q.ArrivalRate = 36.0 / core.Minute // 90% of saturation

	models := []struct {
		name string
		f    *avail.FailureModel
	}{
		{"no failures", nil},
		{"MTBF 20h", &avail.FailureModel{MTBF: 20 * core.Hour, MTTR: 30 * core.Minute}},
		{"MTBF 5h", &avail.FailureModel{MTBF: 5 * core.Hour, MTTR: 30 * core.Minute}},
	}
	t := report.NewTable("failure model", "replication fail %", "plain striping fail %", "parity striping fail %")
	for _, m := range models {
		var rep, plain, parity stats.Summary
		for run := 0; run < cfg.runs; run++ {
			seed := cfg.seed + int64(run)
			rres, err := sim.Run(sim.Config{Problem: q, Layout: layout, NewScheduler: sched, Failures: m.f, Seed: seed})
			if err != nil {
				return err
			}
			rep.Add(rres.FailureRate)
			pres, err := striped.Run(striped.Config{Problem: q, Scheme: striped.Plain, Failures: m.f, Seed: seed})
			if err != nil {
				return err
			}
			plain.Add(pres.FailureRate)
			xres, err := striped.Run(striped.Config{Problem: q, Scheme: striped.Parity, Failures: m.f, Seed: seed})
			if err != nil {
				return err
			}
			parity.Add(xres.FailureRate)
		}
		t.AddRowf(m.name, 100*rep.Mean(), 100*plain.Mean(), 100*parity.Mean())
	}
	if err := cfg.emit.Table("striping-vs-replication", t); err != nil {
		return err
	}
	cfg.emit.Printf("healthy: striping's pooled bandwidth wins. Failing: plain striping's\n")
	cfg.emit.Printf("catalog goes dark with any server, parity pays half its pool in degraded\n")
	cfg.emit.Printf("mode — the replicated cluster degrades most gracefully, the paper's case.\n")
	return nil
}

// figureErlang validates the simulator against queueing theory: Erlang-B is
// exact for the pooled (striped) cluster and a per-server approximation for
// the replicated one. Long warmed-up runs must converge to the predictions.
// Like figureStriping, it drives the striped engine alongside sim, so the
// per-λ loop stays.
func figureErlang(cfg benchConfig) error {
	cfg.emit.Printf("\n=== Validation: simulator vs Erlang-B loss formula ===\n")
	s := config.Paper()
	s.Degree = 1.4
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		return err
	}
	lambdas := []float64{38, 40, 42, 44}
	if cfg.quick {
		lambdas = []float64{40, 44}
	}
	t := report.NewTable("λ (req/min)", "Erlang-B pooled %", "striped sim %", "Erlang-B per-server %", "replicated sim %")
	for _, lam := range lambdas {
		q := p.Clone()
		q.ArrivalRate = lam / core.Minute
		pooled, err := analytic.PooledBlocking(q)
		if err != nil {
			return err
		}
		perServer, err := analytic.ReplicatedBlocking(q, layout)
		if err != nil {
			return err
		}
		var stripedSim, replSim stats.Summary
		runs := cfg.runs
		if runs > 8 {
			runs = 8 // long-horizon runs: keep the total cost bounded
		}
		for i := 0; i < runs; i++ {
			sres, err := striped.Run(striped.Config{Problem: q, Duration: 6 * q.PeakPeriod, Seed: cfg.seed + int64(i)})
			if err != nil {
				return err
			}
			stripedSim.Add(sres.RejectionRate)
			rres, err := sim.Run(sim.Config{
				Problem: q, Layout: layout, NewScheduler: sched,
				Duration: 6 * q.PeakPeriod, Warmup: q.PeakPeriod, Seed: cfg.seed + int64(i),
			})
			if err != nil {
				return err
			}
			replSim.Add(rres.RejectionRate)
		}
		t.AddRowf(lam, 100*pooled, 100*stripedSim.Mean(), 100*perServer, 100*replSim.Mean())
	}
	if err := cfg.emit.Table("erlang-validation", t); err != nil {
		return err
	}
	cfg.emit.Printf("Erlang-B is exact for the pooled system (insensitivity makes the fixed\n")
	cfg.emit.Printf("session length irrelevant); the per-server product form approximates the\n")
	cfg.emit.Printf("replicated cluster under static RR, erring slightly high.\n")
	return nil
}
