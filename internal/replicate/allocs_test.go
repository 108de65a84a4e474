package replicate

import "testing"

// TestReplicateAllocsConstant pins the allocation counts of the two
// replicators plan_scale runs: a constant number per call, the same at
// M = 2 000 and M = 20 000 (N = 64, degree 1.2), not one per bisection step
// (the Zipf-interval search used to build a replica vector on each of its
// ≈ 35 steps) or per seat.
func TestReplicateAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, maxAllocs = 64, 6
	for _, r := range []Replicator{ZipfInterval{}, BoundedAdams{}} {
		var counts []float64
		for _, m := range []int{2_000, 20_000} {
			p := makeProblem(t, m, n, 0.75, (12*m/10+n-1)/n)
			budget, err := p.TargetTotalReplicas(1.2)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(5, func() {
				if _, err := r.Replicate(p, budget); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %.0f allocations at M = 2 000, %.0f at M = 20 000", r.Name(), counts[0], counts[1])
		if counts[0] != counts[1] || counts[1] > maxAllocs {
			t.Errorf("%s allocates %.0f times at M = 2 000 and %.0f at M = 20 000; want the same count, at most %d",
				r.Name(), counts[0], counts[1], maxAllocs)
		}
	}
}
