package resilience

import (
	"math"
	"testing"

	"vodcluster/internal/stats"
)

func TestRetrierBackoffGrowsExponentially(t *testing.T) {
	pol := (Policy{Retry: true}).WithDefaults()
	pol.RetryJitter = 0 // pure exponential, no jitter draw
	pol.RetryPatience = 1e9
	r := NewRetrier(pol, stats.NewRNG(1))
	prev := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		d, ok := r.Delay(attempt, 0)
		if !ok {
			t.Fatalf("attempt %d reneged with infinite patience", attempt)
		}
		want := pol.RetryBase * math.Pow(pol.RetryFactor, float64(attempt))
		if math.Abs(d-want) > 1e-9 {
			t.Fatalf("attempt %d delay %g, want %g", attempt, d, want)
		}
		if d <= prev {
			t.Fatalf("backoff not growing: %g after %g", d, prev)
		}
		prev = d
	}
}

func TestRetrierJitterBoundsAndDeterminism(t *testing.T) {
	pol := (Policy{Retry: true}).WithDefaults() // jitter 0.5
	pol.RetryPatience = 1e9
	a := NewRetrier(pol, stats.NewRNG(7))
	b := NewRetrier(pol, stats.NewRNG(7))
	for attempt := 0; attempt < 8; attempt++ {
		da, _ := a.Delay(attempt, 0)
		db, _ := b.Delay(attempt, 0)
		if da != db {
			t.Fatalf("same seed diverged: %g vs %g", da, db)
		}
		mid := pol.RetryBase * math.Pow(pol.RetryFactor, float64(attempt))
		if da < 0.75*mid-1e-9 || da > 1.25*mid+1e-9 {
			t.Fatalf("attempt %d delay %g outside ±25%% of %g", attempt, da, mid)
		}
	}
}

func TestRetrierPatienceReneges(t *testing.T) {
	pol := (Policy{Retry: true}).WithDefaults() // base 5, factor 2, patience 120
	r := NewRetrier(pol, stats.NewRNG(3))
	// Having already waited just under the patience, any delay reneges.
	if _, ok := r.Delay(0, 119.9); ok {
		t.Fatal("delay past patience accepted")
	}
	// Fresh request: the first delay fits easily.
	if _, ok := r.Delay(0, 0); !ok {
		t.Fatal("first retry reneged immediately")
	}
	// Exponential growth exhausts the patience in a bounded number of
	// attempts even with zero waited time.
	reneged := false
	for attempt := 0; attempt < 64; attempt++ {
		if _, ok := r.Delay(attempt, 0); !ok {
			reneged = true
			break
		}
	}
	if !reneged {
		t.Fatal("backoff never exceeded patience")
	}
}

func TestRetrierQueueBound(t *testing.T) {
	pol := (Policy{Retry: true, RetryLimit: 3}).WithDefaults()
	r := NewRetrier(pol, stats.NewRNG(5))
	for i := 0; i < 3; i++ {
		if !r.TryEnqueue() {
			t.Fatalf("enqueue %d refused below the limit", i)
		}
	}
	if r.TryEnqueue() {
		t.Fatal("queue bound not enforced")
	}
	if r.Pending() != 3 || r.PeakPending() != 3 {
		t.Fatalf("pending %d peak %d, want 3/3", r.Pending(), r.PeakPending())
	}
	r.Resolve()
	if !r.TryEnqueue() {
		t.Fatal("slot not reusable after resolve")
	}
	for i := 0; i < 10; i++ {
		r.Resolve() // over-resolving clamps at zero
	}
	if r.Pending() != 0 {
		t.Fatalf("pending %d after draining", r.Pending())
	}
}

// TestRetrierDelayAtExactPatience: a delay that exactly uses up the
// patience still retries; only one that exceeds it reneges. A jitter of
// 1e-300 keeps the jitter draw in play while 1 + 1e-300·(U − ½) rounds to
// exactly 1, so the delay is exactly RetryBase.
func TestRetrierDelayAtExactPatience(t *testing.T) {
	pol := (Policy{Retry: true}).WithDefaults()
	pol.RetryJitter = 1e-300
	pol.RetryPatience = pol.RetryBase
	r := NewRetrier(pol, stats.NewRNG(9))
	d, ok := r.Delay(0, 0)
	if !ok {
		t.Fatal("a delay equal to the patience reneged")
	}
	if d != pol.RetryBase {
		t.Fatalf("delay %g, want exactly the base %g", d, pol.RetryBase)
	}
}
