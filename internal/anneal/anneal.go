// Package anneal provides a generic simulated-annealing minimizer and the
// paper's scalable-bit-rate replication/placement optimizer built on it
// (§4.3). The paper used the closed-source parsa library for the annealing
// engine; this package substitutes a stdlib-only engine with a geometric
// cooling schedule and optional parallel independent chains, exposing the
// same three problem-specific hooks the paper lists: cost function, initial
// solution, and neighborhood structure.
package anneal

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vodcluster/internal/stats"
)

// Problem supplies the problem-specific decisions of a simulated annealing
// search over states of type S. Implementations must treat states as values:
// Neighbor must not mutate its argument (use Clone). Neighbor may return its
// argument itself to signal a no-op proposal; implement NoopDetector so the
// engine can keep such proposals out of the acceptance statistics.
type Problem[S any] interface {
	// Cost returns the value to minimize.
	Cost(s S) float64
	// Neighbor returns a random neighboring state.
	Neighbor(s S, rng *stats.RNG) S
	// Clone returns an independent deep copy of s.
	Clone(s S) S
}

// NoopDetector optionally extends Problem for the clone-and-rescan path:
// when implemented, the engine asks it whether a candidate returned by
// Neighbor is the unchanged input (e.g. a fully-packed server with every
// rate at the maximum has no move to make). No-op proposals count as steps
// but are neither re-evaluated nor recorded as accepted.
type NoopDetector[S any] interface {
	// Unchanged reports whether cand is prev unmodified.
	Unchanged(prev, cand S) bool
}

// DeltaProblem extends Problem with an in-place, delta-evaluated move
// protocol: instead of cloning the whole state and rescanning it, Propose
// mutates s directly into a candidate neighbor and returns the exact cost
// difference, computed from cached evaluation state in O(changed cells).
// The engine then either keeps the candidate (Apply) or rolls it back
// (Revert); rejected proposals cost an undo instead of a full clone. The
// best state seen is kept current the same way: the engine clones it once
// and then calls Sync, which copies only what Apply changed since.
//
// Contract: the engine strictly alternates Propose with exactly one of
// Apply or Revert (never two outstanding moves), so implementations may
// return a reused scratch move value. After Revert, s must be restored to
// its pre-Propose state (bit-identical layout; cached floats may carry
// rounding-level drift). Cost must remain a from-scratch evaluation — it is
// the cross-check the differential tests run against the cache, and the
// engine uses it once to seed the running cost.
//
// Minimize and MinimizeParallel detect the M = any instantiation
// automatically and route to MinimizeDelta; problems with a concrete move
// type call MinimizeDelta directly. Result, Options, and seed-derivation
// semantics are identical on both paths.
type DeltaProblem[S, M any] interface {
	Problem[S]
	// Propose mutates s into a random neighbor and returns an opaque move
	// handle plus the cost delta of the candidate relative to s before the
	// call. A proposal with no move available returns a move for which
	// IsNoop reports true (and must leave s untouched).
	Propose(s S, rng *stats.RNG) (move M, dCost float64)
	// Apply commits the outstanding proposal.
	Apply(s S, move M)
	// Revert rolls the outstanding proposal back.
	Revert(s S, move M)
	// IsNoop reports whether the move changed nothing; no-ops are counted
	// as steps but never accepted, applied, or reverted.
	IsNoop(move M) bool
	// Sync makes best equal to cur at a cost proportional to what Apply
	// changed in cur since the previous Sync. The engine calls it only with
	// no move outstanding, and only with a best it obtained from Clone(cur)
	// before the first Propose and has modified through Sync alone since.
	Sync(best, cur S)
}

// Options tunes the annealing schedule. The zero value is replaced by
// DefaultOptions.
type Options struct {
	// InitialTemp is the starting temperature; it should be on the order
	// of typical cost differences between neighbors.
	InitialTemp float64
	// Cooling is the geometric cooling factor in (0, 1); the temperature
	// is multiplied by it after every plateau.
	Cooling float64
	// PlateauSteps is the number of proposals evaluated per temperature.
	PlateauSteps int
	// MinTemp ends the search once the temperature falls below it.
	MinTemp float64
	// MaxSteps caps the total number of proposals regardless of
	// temperature (0 = no cap).
	MaxSteps int
	// Seed drives the proposal and acceptance randomness.
	Seed int64
}

// DefaultOptions returns a schedule that converges well on paper-sized
// instances (hundreds of videos, up to tens of servers).
func DefaultOptions() Options {
	return Options{
		InitialTemp:  1.0,
		Cooling:      0.95,
		PlateauSteps: 200,
		MinTemp:      1e-4,
		MaxSteps:     200_000,
	}
}

func (o Options) normalized() (Options, error) {
	def := DefaultOptions()
	if o == (Options{Seed: o.Seed}) {
		// The fully-zero schedule is the documented "use the defaults"
		// request, including the default step cap.
		def.Seed = o.Seed
		return def, nil
	}
	// Fill only the unset fields, preserving everything the caller chose
	// explicitly (a caller setting just MinTemp or MaxSteps keeps them).
	// MaxSteps stays as given: once any field is set, 0 means "no cap".
	if o.InitialTemp == 0 {
		o.InitialTemp = def.InitialTemp
	}
	if o.Cooling == 0 {
		o.Cooling = def.Cooling
	}
	if o.PlateauSteps == 0 {
		o.PlateauSteps = def.PlateauSteps
	}
	if o.MinTemp == 0 {
		o.MinTemp = def.MinTemp
	}
	if o.InitialTemp <= 0 {
		return o, fmt.Errorf("anneal: InitialTemp must be positive, got %g", o.InitialTemp)
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		return o, fmt.Errorf("anneal: Cooling must be in (0,1), got %g", o.Cooling)
	}
	if o.PlateauSteps <= 0 {
		return o, fmt.Errorf("anneal: PlateauSteps must be positive, got %d", o.PlateauSteps)
	}
	if o.MinTemp <= 0 {
		return o, fmt.Errorf("anneal: MinTemp must be positive, got %g", o.MinTemp)
	}
	return o, nil
}

// Result reports the outcome of one annealing run.
type Result[S any] struct {
	// Best is the lowest-cost state seen and BestCost its cost.
	Best     S
	BestCost float64
	// Steps is the number of proposals evaluated and Accepted how many
	// were taken.
	Steps    int
	Accepted int
	// CostTrace samples the current cost once per plateau, for convergence
	// plots.
	CostTrace []float64
}

// Minimize runs simulated annealing from the given initial state. Problems
// implementing DeltaProblem[S, any] are routed to the delta-evaluated
// MinimizeDelta loop automatically; wrap the problem with Scratch to force
// the clone-and-rescan path.
func Minimize[S any](p Problem[S], initial S, opts Options) (Result[S], error) {
	if dp, ok := p.(DeltaProblem[S, any]); ok {
		return MinimizeDelta[S, any](dp, initial, opts)
	}
	var zero Result[S]
	o, err := opts.normalized()
	if err != nil {
		return zero, err
	}
	rng := stats.NewRNG(o.Seed)
	// Neighbor never mutates its argument, so Best may share cur's value:
	// the one clone keeps the caller's initial state out of the result.
	cur := p.Clone(initial)
	curCost := p.Cost(cur)
	res := Result[S]{Best: cur, BestCost: curCost}
	nd, hasNoop := p.(NoopDetector[S])

	temp := o.InitialTemp
	for temp >= o.MinTemp {
		for i := 0; i < o.PlateauSteps; i++ {
			if o.MaxSteps > 0 && res.Steps >= o.MaxSteps {
				return res, nil
			}
			res.Steps++
			cand := p.Neighbor(cur, rng)
			if hasNoop && nd.Unchanged(cur, cand) {
				continue
			}
			candCost := p.Cost(cand)
			if accept(curCost, candCost, temp, rng) {
				cur, curCost = cand, candCost
				res.Accepted++
				if curCost < res.BestCost {
					res.Best, res.BestCost = cur, curCost
				}
			}
		}
		res.CostTrace = append(res.CostTrace, curCost)
		temp *= o.Cooling
	}
	return res, nil
}

// MinimizeDelta runs simulated annealing over a delta-evaluated problem.
// The current state is mutated in place by Propose and either kept (Apply)
// or rolled back (Revert); the running cost is maintained by summing the
// returned deltas, so a proposal costs O(changed cells) instead of a full
// clone plus rescan. The best state is cloned once up front and brought up
// to date by Sync on every improvement, so it is materialised at every
// return. Result, Options, and seed semantics match Minimize.
func MinimizeDelta[S, M any](p DeltaProblem[S, M], initial S, opts Options) (Result[S], error) {
	var zero Result[S]
	o, err := opts.normalized()
	if err != nil {
		return zero, err
	}
	rng := stats.NewRNG(o.Seed)
	cur := p.Clone(initial)
	curCost := p.Cost(cur)
	res := Result[S]{Best: p.Clone(cur), BestCost: curCost}

	temp := o.InitialTemp
	for temp >= o.MinTemp {
		for i := 0; i < o.PlateauSteps; i++ {
			if o.MaxSteps > 0 && res.Steps >= o.MaxSteps {
				return res, nil
			}
			res.Steps++
			move, d := p.Propose(cur, rng)
			if p.IsNoop(move) {
				continue
			}
			if accept(curCost, curCost+d, temp, rng) {
				p.Apply(cur, move)
				curCost += d
				res.Accepted++
				if curCost < res.BestCost {
					p.Sync(res.Best, cur)
					res.BestCost = curCost
				}
			} else {
				p.Revert(cur, move)
			}
		}
		res.CostTrace = append(res.CostTrace, curCost)
		temp *= o.Cooling
	}
	return res, nil
}

// Scratch hides any delta fast path of p, forcing Minimize and
// MinimizeParallel onto the clone-and-rescan Problem loop, so one problem
// can run on both loops.
func Scratch[S any](p Problem[S]) Problem[S] { return scratchOnly[S]{p} }

type scratchOnly[S any] struct{ p Problem[S] }

func (w scratchOnly[S]) Cost(s S) float64               { return w.p.Cost(s) }
func (w scratchOnly[S]) Neighbor(s S, rng *stats.RNG) S { return w.p.Neighbor(s, rng) }
func (w scratchOnly[S]) Clone(s S) S                    { return w.p.Clone(s) }
func (w scratchOnly[S]) Unchanged(prev, cand S) bool {
	if nd, ok := w.p.(NoopDetector[S]); ok {
		return nd.Unchanged(prev, cand)
	}
	return false
}

// accept implements the Metropolis criterion.
func accept(cur, cand, temp float64, rng *stats.RNG) bool {
	if cand <= cur {
		return true
	}
	return rng.Float64() < math.Exp((cur-cand)/temp)
}

// MinimizeParallel runs chains independent annealing searches with derived
// seeds in parallel and returns the best result. It replaces the parsa
// library's parallelism with the simplest strategy that preserves the
// paper's semantics: independent restarts.
func MinimizeParallel[S any](p Problem[S], initial S, opts Options, chains int) (Result[S], error) {
	var zero Result[S]
	if chains <= 0 {
		return zero, fmt.Errorf("anneal: need at least one chain, got %d", chains)
	}
	o, err := opts.normalized()
	if err != nil {
		return zero, err
	}
	results := make([]Result[S], chains)
	errs := make([]error, chains)
	root := stats.NewRNG(o.Seed)

	workers := runtime.GOMAXPROCS(0)
	if workers > chains {
		workers = chains
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				co := o
				co.Seed = root.Derive(int64(i)).Seed()
				// Minimize only reads initial (it clones it first), so the
				// chains can share it.
				results[i], errs[i] = Minimize(p, initial, co)
			}
		}()
	}
	for i := 0; i < chains; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return zero, fmt.Errorf("anneal: chain %d: %w", i, err)
		}
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.BestCost < best.BestCost {
			best = r
		}
	}
	return best, nil
}
