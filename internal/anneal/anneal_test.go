package anneal

import (
	"math"
	"testing"

	"vodcluster/internal/stats"
)

// quadratic is a toy 1-D problem: minimize (x − 7)² over integer steps.
type quadratic struct{}

func (quadratic) Cost(x float64) float64 { return (x - 7) * (x - 7) }

func (quadratic) Neighbor(x float64, rng *stats.RNG) float64 {
	if rng.Bernoulli(0.5) {
		return x + 1
	}
	return x - 1
}

func (quadratic) Clone(x float64) float64 { return x }

func TestMinimizeConvergesOnToyProblem(t *testing.T) {
	opts := Options{InitialTemp: 10, Cooling: 0.9, PlateauSteps: 50, MinTemp: 1e-3, Seed: 1}
	res, err := Minimize[float64](quadratic{}, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best-7) > 1 {
		t.Fatalf("annealer ended at %g, want ≈ 7", res.Best)
	}
	if res.BestCost > 1 {
		t.Fatalf("best cost %g", res.BestCost)
	}
	if res.Steps == 0 || res.Accepted == 0 || len(res.CostTrace) == 0 {
		t.Fatalf("bookkeeping empty: %+v", res)
	}
	if res.Accepted > res.Steps {
		t.Fatal("accepted more proposals than evaluated")
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	opts := Options{InitialTemp: 5, Cooling: 0.9, PlateauSteps: 20, MinTemp: 1e-2, Seed: 3}
	a, err := Minimize[float64](quadratic{}, 50, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Minimize[float64](quadratic{}, 50, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || a.Steps != b.Steps || a.Accepted != b.Accepted {
		t.Fatal("same seed diverged")
	}
}

func TestMinimizeMaxStepsCap(t *testing.T) {
	opts := Options{InitialTemp: 10, Cooling: 0.999, PlateauSteps: 100, MinTemp: 1e-9, MaxSteps: 500, Seed: 1}
	res, err := Minimize[float64](quadratic{}, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 500 {
		t.Fatalf("steps = %d, want exactly the cap", res.Steps)
	}
}

func TestOptionsValidation(t *testing.T) {
	// Zero fields mean "unset, fill the default"; only genuinely invalid
	// values are rejected.
	bad := []Options{
		{InitialTemp: -1, Cooling: 0.9, PlateauSteps: 10, MinTemp: 1e-3},
		{InitialTemp: 1, Cooling: -0.5, PlateauSteps: 10, MinTemp: 1e-3},
		{InitialTemp: 1, Cooling: 1, PlateauSteps: 10, MinTemp: 1e-3},
		{InitialTemp: 1, Cooling: 0.9, PlateauSteps: -1, MinTemp: 1e-3},
		{InitialTemp: 1, Cooling: 0.9, PlateauSteps: 10, MinTemp: -1e-3},
	}
	for i, o := range bad {
		if _, err := Minimize[float64](quadratic{}, 0, o); err == nil {
			t.Fatalf("bad options %d accepted", i)
		}
	}
	// Zero value falls back to defaults.
	if _, err := Minimize[float64](quadratic{}, 0, Options{Seed: 2}); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

// TestNormalizedPreservesExplicitFields is the regression test for the
// default-filling bug: setting only MinTemp, MaxSteps, or Seed used to have
// MinTemp and MaxSteps silently replaced by DefaultOptions.
func TestNormalizedPreservesExplicitFields(t *testing.T) {
	def := DefaultOptions()

	o, err := Options{MaxSteps: 123}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxSteps != 123 {
		t.Fatalf("explicit MaxSteps overwritten: got %d", o.MaxSteps)
	}
	if o.InitialTemp != def.InitialTemp || o.Cooling != def.Cooling ||
		o.PlateauSteps != def.PlateauSteps || o.MinTemp != def.MinTemp {
		t.Fatalf("unset fields not defaulted: %+v", o)
	}

	o, err = Options{MinTemp: 0.25}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if o.MinTemp != 0.25 {
		t.Fatalf("explicit MinTemp overwritten: got %g", o.MinTemp)
	}
	// Once any schedule field is set, MaxSteps 0 keeps meaning "no cap".
	if o.MaxSteps != 0 {
		t.Fatalf("MaxSteps defaulted alongside an explicit MinTemp: got %d", o.MaxSteps)
	}

	// Seed alone still selects the full default schedule.
	o, err = Options{Seed: 7}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := def
	want.Seed = 7
	if o != want {
		t.Fatalf("seed-only options: got %+v, want %+v", o, want)
	}

	// The explicit MaxSteps must actually cap the run.
	res, err := Minimize[float64](quadratic{}, 100, Options{MaxSteps: 123, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 123 {
		t.Fatalf("steps = %d, want the explicit cap 123", res.Steps)
	}
}

func TestDefaultOptionsValid(t *testing.T) {
	if _, err := DefaultOptions().normalized(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestMinimizeParallelPicksBest(t *testing.T) {
	opts := Options{InitialTemp: 10, Cooling: 0.9, PlateauSteps: 30, MinTemp: 1e-3, Seed: 5}
	res, err := MinimizeParallel[float64](quadratic{}, 200, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Minimize[float64](quadratic{}, 200, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > single.BestCost+1e-9 {
		t.Fatalf("best-of-6 (%g) worse than single chain (%g)", res.BestCost, single.BestCost)
	}
	if _, err := MinimizeParallel[float64](quadratic{}, 0, opts, 0); err == nil {
		t.Fatal("zero chains accepted")
	}
}

func TestMinimizeParallelDeterministic(t *testing.T) {
	opts := Options{InitialTemp: 10, Cooling: 0.9, PlateauSteps: 30, MinTemp: 1e-3, Seed: 5}
	a, err := MinimizeParallel[float64](quadratic{}, 200, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinimizeParallel[float64](quadratic{}, 200, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestCost != b.BestCost {
		t.Fatal("parallel chains not deterministic")
	}
}

// plateauProblem has a flat cost, so every proposal is accepted; used to
// check acceptance bookkeeping.
type plateauProblem struct{}

func (plateauProblem) Cost(float64) float64 { return 1 }
func (plateauProblem) Neighbor(x float64, rng *stats.RNG) float64 {
	return x + 1
}
func (plateauProblem) Clone(x float64) float64 { return x }

func TestFlatCostAcceptsEverything(t *testing.T) {
	opts := Options{InitialTemp: 1, Cooling: 0.5, PlateauSteps: 10, MinTemp: 0.4, Seed: 1}
	res, err := Minimize[float64](plateauProblem{}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != res.Steps {
		t.Fatalf("flat landscape: accepted %d of %d", res.Accepted, res.Steps)
	}
}

// deltaQuadratic is the delta-evaluated twin of the quadratic toy problem:
// states are mutable pointers, Propose steps in place, and the counters
// record which engine path ran.
type deltaQuadratic struct {
	proposes  *int
	neighbors *int
}

func (d deltaQuadratic) cost(x float64) float64 { return (x - 7) * (x - 7) }

func (d deltaQuadratic) Cost(x *float64) float64 { return d.cost(*x) }

func (d deltaQuadratic) Neighbor(x *float64, rng *stats.RNG) *float64 {
	*d.neighbors++
	y := *x - 1
	if rng.Bernoulli(0.5) {
		y = *x + 1
	}
	return &y
}

func (d deltaQuadratic) Clone(x *float64) *float64 { y := *x; return &y }

func (d deltaQuadratic) Propose(x *float64, rng *stats.RNG) (any, float64) {
	*d.proposes++
	old := *x
	if rng.Bernoulli(0.5) {
		*x = old + 1
	} else {
		*x = old - 1
	}
	return old, d.cost(*x) - d.cost(old)
}

func (d deltaQuadratic) Apply(x *float64, move any) {}

func (d deltaQuadratic) Revert(x *float64, move any) { *x = move.(float64) }

func (d deltaQuadratic) IsNoop(move any) bool { return false }

func (d deltaQuadratic) Sync(best, cur *float64) { *best = *cur }

func TestMinimizeRoutesDeltaProblems(t *testing.T) {
	proposes, neighbors := 0, 0
	d := deltaQuadratic{proposes: &proposes, neighbors: &neighbors}
	opts := Options{InitialTemp: 10, Cooling: 0.9, PlateauSteps: 50, MinTemp: 1e-3, Seed: 1}
	start := 100.0
	res, err := Minimize[*float64](d, &start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if proposes == 0 || neighbors != 0 {
		t.Fatalf("delta problem not routed to the delta path: %d proposes, %d neighbors", proposes, neighbors)
	}
	if math.Abs(*res.Best-7) > 1 || res.BestCost > 1 {
		t.Fatalf("delta path ended at %g (cost %g), want ≈ 7", *res.Best, res.BestCost)
	}
	if res.Accepted == 0 || res.Accepted > res.Steps {
		t.Fatalf("bookkeeping wrong: %+v", res)
	}
	if start != 100 {
		t.Fatalf("Minimize mutated the caller's initial state to %g", start)
	}

	// Scratch forces the clone-and-rescan path over the same problem.
	proposes, neighbors = 0, 0
	sres, err := Minimize[*float64](Scratch[*float64](d), &start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if neighbors == 0 || proposes != 0 {
		t.Fatalf("Scratch wrapper still used the delta path: %d proposes, %d neighbors", proposes, neighbors)
	}
	if math.Abs(*sres.Best-7) > 1 {
		t.Fatalf("scratch path ended at %g, want ≈ 7", *sres.Best)
	}
}

func TestMinimizeDeltaDeterministic(t *testing.T) {
	opts := Options{InitialTemp: 5, Cooling: 0.9, PlateauSteps: 20, MinTemp: 1e-2, Seed: 3}
	run := func() Result[*float64] {
		p, n := 0, 0
		start := 50.0
		res, err := Minimize[*float64](deltaQuadratic{proposes: &p, neighbors: &n}, &start, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *a.Best != *b.Best || a.Steps != b.Steps || a.Accepted != b.Accepted || a.BestCost != b.BestCost {
		t.Fatal("delta path not deterministic for one seed")
	}
}

// noopProblem proposes nothing, ever, on both paths.
type noopProblem struct{}

func (noopProblem) Cost(x *float64) float64 { return *x }
func (noopProblem) Neighbor(x *float64, rng *stats.RNG) *float64 {
	rng.Float64() // consume randomness like a real proposal would
	return x
}
func (noopProblem) Clone(x *float64) *float64          { y := *x; return &y }
func (noopProblem) Unchanged(prev, cand *float64) bool { return prev == cand }
func (noopProblem) Propose(x *float64, rng *stats.RNG) (any, float64) {
	rng.Float64()
	return nil, 0
}
func (noopProblem) Apply(x *float64, move any)  {}
func (noopProblem) Revert(x *float64, move any) {}
func (noopProblem) IsNoop(move any) bool        { return move == nil }
func (noopProblem) Sync(best, cur *float64)     { *best = *cur }

func TestNoopProposalsNotCountedAccepted(t *testing.T) {
	opts := Options{InitialTemp: 1, Cooling: 0.5, PlateauSteps: 10, MinTemp: 0.4, Seed: 1}
	x := 1.0

	res, err := Minimize[*float64](noopProblem{}, &x, opts) // delta path
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 20 || res.Accepted != 0 {
		t.Fatalf("delta path: steps %d accepted %d, want 20 and 0", res.Steps, res.Accepted)
	}

	res, err = Minimize[*float64](Scratch[*float64](noopProblem{}), &x, opts) // scratch path
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 20 || res.Accepted != 0 {
		t.Fatalf("scratch path: steps %d accepted %d, want 20 and 0", res.Steps, res.Accepted)
	}
}
