package apportion

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"vodcluster/internal/stats"
)

// referenceBoundedDivisor is BoundedDivisor as it was before the typed heap
// and the first-seat pass: every eligible party enters a container/heap at
// its d(0) priority and every seat, first seats included, is one Fix or Pop.
// It is the oracle the production method is compared against; like the old
// method it does not validate weights, so callers pass valid ones only.
func referenceBoundedDivisor(weights []float64, seats int, method Method, maxSeats []int) ([]int, error) {
	n := len(weights)
	if method == Hamilton {
		return nil, fmt.Errorf("apportion: Hamilton is not a divisor method")
	}
	if maxSeats != nil {
		if len(maxSeats) != n {
			return nil, fmt.Errorf("apportion: maxSeats has %d entries for %d parties", len(maxSeats), n)
		}
		totalCap := 0
		for i, c := range maxSeats {
			if c < 0 {
				return nil, fmt.Errorf("apportion: negative cap for party %d", i)
			}
			totalCap += c
		}
		if totalCap < seats {
			return nil, fmt.Errorf("apportion: caps sum to %d, below target %d", totalCap, seats)
		}
	}
	out := make([]int, n)
	h := &referenceHeap{items: make([]priorityItem, 0, n)}
	for i, w := range weights {
		if maxSeats != nil && maxSeats[i] == 0 {
			continue
		}
		h.items = append(h.items, priorityItem{party: i, priority: priority(w, method.rank(0))})
	}
	heap.Init(h)
	for s := 0; s < seats; s++ {
		if h.Len() == 0 {
			return nil, fmt.Errorf("apportion: ran out of eligible parties after %d of %d seats", s, seats)
		}
		i := h.items[0].party
		out[i]++
		if maxSeats != nil && out[i] >= maxSeats[i] {
			heap.Pop(h)
			continue
		}
		h.items[0].priority = priority(weights[i], method.rank(out[i]))
		heap.Fix(h, 0)
	}
	return out, nil
}

type referenceHeap struct{ items []priorityItem }

func (h *referenceHeap) Len() int { return len(h.items) }
func (h *referenceHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.party < b.party
}
func (h *referenceHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *referenceHeap) Push(x any)    { h.items = append(h.items, x.(priorityItem)) }
func (h *referenceHeap) Pop() any {
	it := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return it
}

var divisorMethods = []Method{Adams, Jefferson, Webster, Hill}

// divisorInstance is one generated BoundedDivisor input.
type divisorInstance struct {
	weights []float64
	seats   int
	method  Method
	caps    []int
}

func (in divisorInstance) String() string {
	return fmt.Sprintf("%v, %d seats, %d parties, caps %v", in.method, in.seats, len(in.weights), in.caps)
}

// genDivisorInstance draws an instance from seed: up to 40 parties whose
// weights are continuous or drawn from three values (so ties are common);
// caps nil, with zeros, or partial; and a seat count anywhere from zero to a
// few past the caps' sum, so Adams with fewer seats than parties and
// unreachable targets both occur.
func genDivisorInstance(seed int64) divisorInstance {
	rng := stats.NewRNG(seed)
	n := 1 + rng.Intn(40)
	in := divisorInstance{weights: make([]float64, n), method: divisorMethods[rng.Intn(len(divisorMethods))]}
	tied := rng.Bernoulli(0.4)
	for i := range in.weights {
		if tied {
			in.weights[i] = []float64{0.5, 1, 3}[rng.Intn(3)]
		} else {
			in.weights[i] = rng.Float64() + 1e-3
		}
	}
	room := 4 * n
	switch rng.Intn(3) {
	case 1: // some parties may hold nothing
		in.caps = make([]int, n)
		room = 0
		for i := range in.caps {
			if !rng.Bernoulli(0.3) {
				in.caps[i] = 1 + rng.Intn(5)
			}
			room += in.caps[i]
		}
	case 2: // every party capped, some at one seat
		in.caps = make([]int, n)
		room = 0
		for i := range in.caps {
			in.caps[i] = 1 + rng.Intn(4)
			room += in.caps[i]
		}
	}
	in.seats = rng.Intn(room + 3)
	return in
}

// requireDivisorMatchesReference fails unless BoundedDivisor and the reference
// agree on in: the same allocation, or both an error.
func requireDivisorMatchesReference(t testing.TB, in divisorInstance) {
	t.Helper()
	got, gotErr := BoundedDivisor(in.weights, in.seats, in.method, in.caps)
	want, wantErr := referenceBoundedDivisor(in.weights, in.seats, in.method, in.caps)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%v: error %v, reference error %v", in, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%v: got %v, reference %v", in, got, want)
	}
}

// TestBoundedDivisorMatchesReference compares the typed-heap method with the
// container/heap reference: over generated instances (every divisor method;
// nil, zero and partial caps; Adams with fewer seats than parties; tied
// weights) and at plan_scale's shape, M = 20 000 Zipf(0.75) weights and
// 24 000 seats, uncapped and capped at N = 64.
func TestBoundedDivisorMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		requireDivisorMatchesReference(t, genDivisorInstance(seed))
	}
	const m, seats = 20_000, 24_000
	zipfWeights := make([]float64, m)
	for i := range zipfWeights {
		zipfWeights[i] = math.Pow(float64(i+1), -0.75)
	}
	caps := make([]int, m)
	for i := range caps {
		caps[i] = 64
	}
	for _, method := range divisorMethods {
		requireDivisorMatchesReference(t, divisorInstance{weights: zipfWeights, seats: seats, method: method})
		requireDivisorMatchesReference(t, divisorInstance{weights: zipfWeights, seats: seats, method: method, caps: caps})
	}
}

// FuzzBoundedDivisorOracle runs the reference comparison on instances drawn
// from fuzzed seeds.
func FuzzBoundedDivisorOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		requireDivisorMatchesReference(t, genDivisorInstance(seed))
	})
}

// TestInvalidWeightsRejected checks that both entry points refuse weights no
// method can apportion, with one error: before, BoundedDivisor took them, and
// an +Inf weight took every seat up to its cap while NaN broke the heap order.
func TestInvalidWeightsRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		weights := []float64{1, bad, 2}
		want := fmt.Sprintf("apportion: weight 1 must be positive and finite, got %g", bad)
		for _, m := range divisorMethods {
			if _, err := BoundedDivisor(weights, 4, m, nil); err == nil || err.Error() != want {
				t.Errorf("BoundedDivisor(%v, %v): error %v, want %q", weights, m, err, want)
			}
			if _, err := BoundedDivisor(weights, 4, m, []int{2, 2, 2}); err == nil || err.Error() != want {
				t.Errorf("BoundedDivisor(%v, %v, caps): error %v, want %q", weights, m, err, want)
			}
		}
		for _, m := range append(divisorMethods, Hamilton) {
			if _, err := Apportion(weights, 4, m); err == nil || err.Error() != want {
				t.Errorf("Apportion(%v, %v): error %v, want %q", weights, m, err, want)
			}
		}
	}
}
