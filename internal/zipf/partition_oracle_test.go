package zipf

import (
	"math"
	"testing"
)

// referencePartition is Partition as it was before PartitionInto: the
// interval weights in a slice of their own, the bounds in another.
func referencePartition(total float64, n int, u float64) []float64 {
	weights := make([]float64, n)
	sum := 0.0
	for j := 0; j < n; j++ {
		weights[j] = math.Pow(float64(j+1), -u)
		sum += weights[j]
	}
	bounds := make([]float64, n+1)
	bounds[0] = total
	acc := 0.0
	for j := 0; j < n; j++ {
		acc += weights[j] / sum
		bounds[j+1] = total * (1 - acc)
	}
	bounds[n] = 0
	return bounds
}

// TestPartitionIntoMatchesReference checks that writing the weights into the
// bounds slice and overwriting them in place gives the reference bounds bit
// for bit, through both entry points and into a reused buffer, at every
// interval count the replication search uses and skews far on both sides.
func TestPartitionIntoMatchesReference(t *testing.T) {
	buf := make([]float64, 129)
	for n := 1; n <= 128; n++ {
		for _, u := range []float64{-60, -7.5, -1, -0.3, 0, 0.271, 1, 2.9, 12, 60} {
			for _, total := range []float64{1, 0.0123, 3.7e-5} {
				want := referencePartition(total, n, u)
				got := Partition(total, n, u)
				into := PartitionInto(buf[:n+1], total, u)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(into[j]) != math.Float64bits(want[j]) {
						t.Fatalf("n=%d u=%g total=%g: bound %d = %.17g (Partition), %.17g (PartitionInto), reference %.17g",
							n, u, total, j, got[j], into[j], want[j])
					}
				}
			}
		}
	}
}
