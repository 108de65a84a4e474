package vodcluster_test

import (
	"testing"

	"vodcluster"
	"vodcluster/internal/anneal"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/sim"
)

// TestE7Pinned pins EXPERIMENTS.md E7, the §4.3 scalable-bit-rate run of
// `vodbench -fig sa`: the paper cluster at 50 GB per server, rates {2, 4, 6,
// 8} Mb/s, seed 42, 2 000 proposals per plateau through the full cooling
// schedule, 4 chains. The annealed plan's components must equal the recorded
// values to the last bit, so any change to the annealer, its evaluation or
// its random stream that moves the plan shows here. It also checks E7's
// prose claim at the table's 20 runs: simulated rejection of the annealed
// layout sits more than 1.2× above the fixed 4 Mb/s zipf+slf layout's.
func TestE7Pinned(t *testing.T) {
	const seed, runs = 42, 20
	s := config.Paper()
	s.StorageGB = 50
	p, err := s.Problem()
	if err != nil {
		t.Fatal(err)
	}
	bp := &anneal.BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
	opts := anneal.DefaultOptions()
	opts.Seed = seed
	opts.PlateauSteps = 2000
	opts.MaxSteps = 0
	best, e, err := bp.Optimize(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean rate (Mb/s)", e.MeanRateMbps, 5.7800000000000002},
		{"degree", e.Degree, 1.0700000000000001},
		{"imbalance L", e.Imbalance, 0.00038446256869624994},
		{"objective", e.Objective, 6.8496155374313039},
	} {
		if c.got != c.want {
			t.Errorf("annealed %s = %.17g, recorded %.17g", c.name, c.got, c.want)
		}
	}
	if !e.Feasible() {
		t.Fatalf("annealed plan is infeasible: %+v", e)
	}

	layout, err := bp.Runtime(best)
	if err != nil {
		t.Fatal(err)
	}
	sa, _, err := sim.RunMany(sim.Config{Problem: p, Layout: layout, Seed: seed}, runs)
	if err != nil {
		t.Fatal(err)
	}
	fixed := s
	fixed.Replicator, fixed.Placer, fixed.Degree = "zipf", "slf", 1.8
	fp, flayout, fsched, err := vodcluster.Pipeline(fixed)
	if err != nil {
		t.Fatal(err)
	}
	fx, _, err := sim.RunMany(sim.Config{Problem: fp, Layout: flayout, NewScheduler: fsched, Seed: seed}, runs)
	if err != nil {
		t.Fatal(err)
	}
	saRej, fixedRej := sa.RejectionRate.Mean(), fx.RejectionRate.Mean()
	t.Logf("rejection: annealed %.3f %%, fixed zipf+slf %.3f %%", 100*saRej, 100*fixedRej)
	if saRej <= 1.2*fixedRej {
		t.Fatalf("annealed rejection %.3f %% is not above 1.2× the fixed layout's %.3f %%", 100*saRej, 100*fixedRej)
	}
}
