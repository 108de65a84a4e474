// Package exp is the shared experiment harness: every figure, CLI sweep,
// example, and benchmark in this repository is a sweep — over arrival rate,
// replication degree, popularity skew, or a policy combination — evaluated
// at several points with replicated simulation runs per point. exp owns that
// loop once: a Sweep evaluates a grid of Series × points in parallel with
// bounded workers and per-point derived seeds, aggregates through
// internal/metrics, and renders through one table/CSV/chart emitter.
//
// Determinism: the result grid depends only on (Series, Xs, Runs, Seed) —
// never on Workers or goroutine scheduling. Every (point, replication) cell
// derives its seed from the point's base seed exactly the way sim.RunMany
// derives replication seeds, so a harness sweep reproduces the sequential
// loops it replaced bit for bit.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vodcluster/internal/core"
	"vodcluster/internal/metrics"
	"vodcluster/internal/sim"
	"vodcluster/internal/stats"
)

// pointSeedStride spaces the default per-point base seeds so neighbouring
// points draw visibly unrelated randomness even before SplitMix64 mixing.
const pointSeedStride = 1000003

// Series is one curve of a sweep: a name (the legend and table-column
// label) and a constructor that materializes the simulation for one swept
// x-value. Config runs on the coordinating goroutine, so it may capture
// shared state (a pre-built problem/layout) without synchronization; the
// returned sim.Config must be self-contained the way sim.RunMany requires
// (factories for scheduler and controller, no shared mutable instances).
type Series struct {
	Name   string
	Config func(x float64) (sim.Config, error)
}

// ArrivalSeries is the arrival-rate sweep of the paper's Figs. 4–6: the
// layout is built once, for the peak rate (§5's conservative model), and
// only the runtime load moves. Each point x (requests/minute) runs base with
// its Problem cloned at rate x/core.Minute; every other field — layout,
// scheduler factory, failures, resilience, stream limit — carries through
// unchanged, and base.Problem itself is never mutated.
func ArrivalSeries(name string, base sim.Config) Series {
	return Series{Name: name, Config: func(x float64) (sim.Config, error) {
		cfg := base
		cfg.Problem = base.Problem.Clone()
		cfg.Problem.ArrivalRate = x / core.Minute
		return cfg, nil
	}}
}

// Point is one evaluated cell of a sweep: the swept value, the base seed
// the cell's replications derived from, and the aggregated results.
type Point struct {
	// X is the swept value (e.g. arrival rate in requests/minute).
	X float64
	// Seed is the point's base seed; replication r ran with the seed
	// stats.NewRNG(Seed).Derive(r).Seed().
	Seed int64
	// Agg aggregates the replicated runs at this point in run order.
	Agg *metrics.Aggregate
	// Results holds the per-replication results in run order.
	Results []metrics.Result
}

// Sweep evaluates |Series| × |Xs| points with Runs replications each.
type Sweep struct {
	// Xs are the swept values, one table row / chart x-position each.
	Xs []float64
	// Series are the curves; every series is evaluated at every x.
	Series []Series
	// Runs is the number of simulation replications per point.
	Runs int
	// Seed is the master seed. Points at the same x share base seeds
	// across series (common random numbers), so series compare under
	// identical workloads — the convention the paper's figures use.
	Seed int64
	// Workers bounds the parallel simulations across the whole grid —
	// points and series evaluate concurrently, not just within-point
	// replications. 0 means GOMAXPROCS; 1 forces sequential evaluation.
	Workers int
	// PointSeed overrides the base seed for x-index i; nil means
	// Seed + i*1000003 (the historical sweep convention). Experiments
	// whose points must share one seed (e.g. a degree sweep at fixed
	// workload) supply func(int) int64 { return seed }.
	PointSeed func(i int) int64
}

// RunError reports the first failed simulation of a sweep, identifying the
// cell — in deterministic (series, x, replication) order, independent of
// worker scheduling. Callers that wrap sweep errors with their own context
// recover the failing point via errors.As.
type RunError struct {
	// Series is the failing series' name.
	Series string
	// X is the swept value the failure occurred at.
	X float64
	// Rep is the failing replication index at that point.
	Rep int
	// Err is the underlying simulation error.
	Err error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("exp: series %q at x=%g run %d: %v", e.Series, e.X, e.Rep, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Run evaluates the grid and returns it as [series][x]Point.
func (s *Sweep) Run() ([][]Point, error) {
	if len(s.Xs) == 0 {
		return nil, fmt.Errorf("exp: sweep has no points")
	}
	if len(s.Series) == 0 {
		return nil, fmt.Errorf("exp: sweep has no series")
	}
	if s.Runs <= 0 {
		return nil, fmt.Errorf("exp: need at least one run per point, got %d", s.Runs)
	}

	pointSeed := s.PointSeed
	if pointSeed == nil {
		pointSeed = func(i int) int64 { return s.Seed + int64(i)*pointSeedStride }
	}

	// Materialize every cell's configuration up front, on this goroutine:
	// construction errors surface before any simulation starts, and workers
	// never run caller code concurrently.
	type cell struct {
		cfg  sim.Config
		seed int64 // base seed; replications derive from it
	}
	cells := make([][]cell, len(s.Series))
	for si, ser := range s.Series {
		if ser.Config == nil {
			return nil, fmt.Errorf("exp: series %q has no Config", ser.Name)
		}
		cells[si] = make([]cell, len(s.Xs))
		for xi, x := range s.Xs {
			cfg, err := ser.Config(x)
			if err != nil {
				return nil, fmt.Errorf("exp: series %q at x=%g: %w", ser.Name, x, err)
			}
			cells[si][xi] = cell{cfg: cfg, seed: pointSeed(xi)}
		}
	}

	// One flat job per (series, x, replication), numbered in that order;
	// results land in a dense slice indexed by job number, so aggregation
	// order — and therefore the result — is independent of worker
	// scheduling.
	nx, runs := len(s.Xs), s.Runs
	results := make([]metrics.Result, len(s.Series)*nx*runs)
	errs := make([]error, len(results))
	runJobs(len(results), s.Workers, func(k int) {
		c := cells[k/(nx*runs)][k/runs%nx]
		runCfg := c.cfg
		runCfg.Seed = stats.NewRNG(c.seed).Derive(int64(k % runs)).Seed()
		results[k], errs[k] = sim.Run(runCfg)
	})

	grid := make([][]Point, len(s.Series))
	for si := range s.Series {
		grid[si] = make([]Point, nx)
		for xi := range s.Xs {
			first := (si*nx + xi) * runs
			for rep, err := range errs[first : first+runs] {
				if err != nil {
					return nil, &RunError{Series: s.Series[si].Name, X: s.Xs[xi], Rep: rep, Err: err}
				}
			}
			pointResults := results[first : first+runs : first+runs]
			agg := &metrics.Aggregate{}
			for _, res := range pointResults {
				agg.Add(res)
			}
			grid[si][xi] = Point{
				X:       s.Xs[xi],
				Seed:    cells[si][xi].seed,
				Agg:     agg,
				Results: pointResults,
			}
		}
	}
	return grid, nil
}

// runJobs calls job(k) for every k in [0, n) on at most workers goroutines
// (0 means GOMAXPROCS) and returns once all calls have. It is the one
// worker pool of the harness: Sweep and Lockstep both write each job's
// outcome into a slot of their own dense grid, so what they return never
// depends on which goroutine ran which job.
func runJobs(n, workers int, job func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				job(k)
			}
		}()
	}
	wg.Wait()
}

// Metric extracts one plotted value from an evaluated point.
type Metric func(Point) float64

// RejectionPct is the mean rejection rate in percent — Figures 4 and 5.
func RejectionPct(p Point) float64 { return 100 * p.Agg.RejectionRate.Mean() }

// FailurePct is the mean session failure rate in percent.
func FailurePct(p Point) float64 { return 100 * p.Agg.FailureRate.Mean() }

// ImbalanceCapPct is the mean capacity-normalized load imbalance in
// percent — Figure 6's L.
func ImbalanceCapPct(p Point) float64 { return 100 * p.Agg.ImbalanceCapAvg.Mean() }
