// Package apportion implements classical apportionment methods — dividing a
// fixed number of indivisible seats among parties in proportion to their
// weights. The paper observes that assigning replica counts in proportion to
// video popularity "is close to a classical apportionment problem" and builds
// its optimal replication scheme on Adams' monotone divisor method; this
// package provides that method together with the other standard divisor
// methods (Jefferson, Webster, Hill) and Hamilton's largest-remainder method
// for comparison and testing.
//
// A divisor method with rank function d(k) repeatedly awards the next seat to
// the party maximizing weight/d(seats already held). Adams' method uses
// d(k) = k, which awards each additional seat to the party whose current
// per-seat share weight/k is greatest — exactly the paper's rule of
// duplicating the video whose replicas carry the greatest communication
// weight.
package apportion

import (
	"fmt"
	"math"
)

// Method selects an apportionment rule.
type Method int

const (
	// Adams is the divisor method with d(k) = k (smallest divisors).
	// It is house-monotone and favors small parties; every party with
	// positive weight receives at least one seat.
	Adams Method = iota
	// Jefferson is the divisor method with d(k) = k + 1 (greatest
	// divisors, a.k.a. D'Hondt). It favors large parties.
	Jefferson
	// Webster is the divisor method with d(k) = k + 1/2 (major fractions,
	// a.k.a. Sainte-Laguë).
	Webster
	// Hill is the divisor method with d(k) = sqrt(k(k+1)) (equal
	// proportions), used by the US House since 1941.
	Hill
	// Hamilton is the largest-remainder method: floor the exact quotas,
	// then hand leftover seats to the largest fractional remainders.
	Hamilton
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Adams:
		return "adams"
	case Jefferson:
		return "jefferson"
	case Webster:
		return "webster"
	case Hill:
		return "hill"
	case Hamilton:
		return "hamilton"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// rank returns the divisor d(k) for a party currently holding k seats; the
// next seat goes to the party maximizing weight/d(k).
func (m Method) rank(k int) float64 {
	switch m {
	case Adams:
		if k == 0 {
			return 0 // infinite priority: every party gets a first seat
		}
		return float64(k)
	case Jefferson:
		return float64(k + 1)
	case Webster:
		return float64(k) + 0.5
	case Hill:
		return math.Sqrt(float64(k) * float64(k+1))
	}
	panic("apportion: rank undefined for " + m.String())
}

// Apportion distributes seats among parties with the given positive weights.
// For divisor methods it runs the seat-by-seat priority formulation with a
// max-heap (see BoundedDivisor). Ties are broken toward the lower index,
// making the result deterministic.
//
// Adams' method requires seats ≥ len(weights) because it gives every party a
// seat; Hamilton and the other divisor methods accept any seats ≥ 0.
func Apportion(weights []float64, seats int, method Method) ([]int, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("apportion: no parties")
	}
	if seats < 0 {
		return nil, fmt.Errorf("apportion: negative seat count %d", seats)
	}
	if method == Hamilton {
		if err := checkWeights(weights); err != nil {
			return nil, err
		}
		return hamilton(weights, seats), nil
	}
	if method == Adams && seats < n {
		return nil, fmt.Errorf("apportion: Adams needs at least %d seats for %d parties, got %d", n, n, seats)
	}
	return BoundedDivisor(weights, seats, method, nil)
}

// checkWeights rejects the weights no method can apportion: a non-positive,
// NaN or infinite weight would take no seat, break the heap's order, or take
// every seat up to its cap.
func checkWeights(weights []float64) error {
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("apportion: weight %d must be positive and finite, got %g", i, w)
		}
	}
	return nil
}

// BoundedDivisor runs a divisor method where party i may hold at most
// maxSeats[i] seats (nil means unbounded). This is the paper's "bounded Adams
// monotone divisor" generalization: replica counts are capped by the number
// of servers (Eq. 7). It returns an error if a weight is not positive and
// finite or the caps make the target unreachable.
//
// Each seat goes to the eligible party maximizing weight/d(seats held), ties
// toward the lower index; that order is total, so the award sequence does not
// depend on the heap's layout. Where d(0) = 0 (Adams, Hill) every party has
// infinite priority until it holds a seat, so the first seats go to the
// eligible parties in index order: one O(M) pass hands them out and one
// heapify orders the rest, O(M + K log M) for K further seats.
func BoundedDivisor(weights []float64, seats int, method Method, maxSeats []int) ([]int, error) {
	n := len(weights)
	if method == Hamilton {
		return nil, fmt.Errorf("apportion: Hamilton is not a divisor method")
	}
	if err := checkWeights(weights); err != nil {
		return nil, err
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
	h := make(priorityHeap, 0, n)
	infiniteFirst := method.rank(0) == 0
	s := 0
	for i, w := range weights {
		if maxSeats != nil && maxSeats[i] == 0 {
			continue
		}
		if !infiniteFirst {
			h = append(h, priorityItem{party: i, priority: priority(w, method.rank(0))})
			continue
		}
		if s == seats {
			break
		}
		out[i] = 1
		s++
		if maxSeats == nil || maxSeats[i] > 1 {
			h = append(h, priorityItem{party: i, priority: priority(w, method.rank(1))})
		}
	}
	h.init()
	for ; s < seats; s++ {
		if len(h) == 0 {
			return nil, fmt.Errorf("apportion: ran out of eligible parties after %d of %d seats", s, seats)
		}
		i := h[0].party
		out[i]++
		if maxSeats != nil && out[i] >= maxSeats[i] {
			h.popTop()
			continue
		}
		h[0].priority = priority(weights[i], method.rank(out[i]))
		h.down(0)
	}
	return out, nil
}

// priority computes w/d with d(0)=0 treated as infinite priority.
func priority(w, d float64) float64 {
	if d == 0 {
		return math.Inf(1)
	}
	return w / d
}

func hamilton(weights []float64, seats int) []int {
	n := len(weights)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	out := make([]int, n)
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, w := range weights {
		quota := w / total * float64(seats)
		out[i] = int(math.Floor(quota))
		assigned += out[i]
		rems[i] = rem{i: i, frac: quota - math.Floor(quota)}
	}
	// Largest remainders first; ties toward lower index.
	for assigned < seats {
		best := -1
		for j := range rems {
			if best == -1 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		out[rems[best].i]++
		rems[best].frac = -1
		assigned++
	}
	return out
}

// priorityItem and priorityHeap implement the max-heap over party priorities
// with deterministic lower-index tie-breaking.
type priorityItem struct {
	party    int
	priority float64
}

type priorityHeap []priorityItem

// before reports whether a outranks b: higher priority, then lower index.
func (a priorityItem) before(b priorityItem) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.party < b.party
}

// init establishes the heap order in O(len(h)).
func (h priorityHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts h[i] toward the leaves until neither child outranks it.
func (h priorityHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// popTop removes the highest-ranked item.
func (h *priorityHeap) popTop() {
	old := *h
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
}
