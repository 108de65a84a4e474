package resilience

import (
	"math"

	"vodcluster/internal/stats"
)

// Retrier tracks a bounded retry queue and computes backoff delays; waiting
// them out stays with the caller — the simulator's virtual clock or the
// daemon's timers, which hold the Retrier under a mutex. All randomness (the
// jitter) is drawn from the RNG supplied at construction, so the delay
// sequence is deterministic per seed. Retrier is not safe for concurrent
// use.
type Retrier struct {
	pol     Policy
	rng     *stats.RNG
	pending int
	peak    int
}

// NewRetrier builds a retrier for a defaulted, validated policy.
func NewRetrier(pol Policy, rng *stats.RNG) *Retrier {
	return &Retrier{pol: pol, rng: rng}
}

// TryEnqueue admits one rejected request into the retry queue; false means
// the queue is full and the request must be insta-rejected.
func (r *Retrier) TryEnqueue() bool {
	if r.pending >= r.pol.RetryLimit {
		return false
	}
	r.pending++
	if r.pending > r.peak {
		r.peak = r.pending
	}
	return true
}

// Resolve removes one queued request: it was either admitted on a retry or
// reneged. Every TryEnqueue must be paired with exactly one Resolve.
func (r *Retrier) Resolve() {
	if r.pending > 0 {
		r.pending--
	}
}

// Pending returns the number of requests currently queued for retry.
func (r *Retrier) Pending() int { return r.pending }

// PeakPending returns the largest queue depth seen.
func (r *Retrier) PeakPending() int { return r.peak }

// Delay returns the backoff before retry number attempt (0-based) for a
// request that has already waited `waited` seconds since its first
// rejection:
//
//	delay = base · factor^attempt · (1 + jitter·(U − ½)),  U ~ Uniform[0,1)
//
// ok is false when waiting that long would exceed the client's patience —
// the request reneges instead of retrying again.
func (r *Retrier) Delay(attempt int, waited float64) (float64, bool) {
	// Draw even when the patience check below will renege, so the RNG
	// stream position depends only on the number of Delay calls.
	u := r.rng.Float64()
	d := r.pol.RetryBase * math.Pow(r.pol.RetryFactor, float64(attempt))
	if j := r.pol.RetryJitter; j > 0 {
		d *= 1 + j*(u-0.5)
	}
	if waited+d > r.pol.RetryPatience {
		return 0, false
	}
	return d, true
}
