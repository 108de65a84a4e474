package stats

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Histogram counts observations into fixed-width bins over [Lo, Hi).
// Values below Lo land in an underflow bucket and values at or above Hi in an
// overflow bucket, so no observation is ever silently dropped. Add is safe
// for concurrent use and takes no lock: the counts are atomic and the sum is
// a float64 updated by compare-and-swap, so integer-valued observations sum
// exactly up to 2^53.
type Histogram struct {
	Lo, Hi    float64
	bins      []atomic.Int64
	underflow atomic.Int64
	overflow  atomic.Int64
	sumBits   atomic.Uint64 // math.Float64bits of the sum
}

// NewHistogram creates a histogram with n bins spanning [lo, hi).
// It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]atomic.Int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.underflow.Add(1)
	case x >= h.Hi:
		h.overflow.Add(1)
	default:
		i := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.bins) { // guard against floating-point edge
			i--
		}
		h.bins[i].Add(1)
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// Count returns the number of observations in bin i.
func (h *Histogram) Count(i int) int { return int(h.bins[i].Load()) }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// Total returns the total number of observations, including under/overflow.
func (h *Histogram) Total() int {
	n := h.Underflow() + h.Overflow()
	for i := range h.bins {
		n += h.Count(i)
	}
	return n
}

// Underflow returns the count of observations below Lo.
func (h *Histogram) Underflow() int { return int(h.underflow.Load()) }

// Overflow returns the count of observations at or above Hi.
func (h *Histogram) Overflow() int { return int(h.overflow.Load()) }

// Sum returns the sum of all observations, including under/overflow.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return h.Lo + w*(float64(i)+0.5)
}

// BinUpper returns the exclusive upper edge of bin i — the `le` bound a
// cumulative (Prometheus-style) rendering labels the bucket with.
func (h *Histogram) BinUpper(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return h.Lo + w*float64(i+1)
}

// String renders a compact ASCII bar chart of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	counts := make([]int, len(h.bins))
	peak := 0
	for i := range h.bins {
		counts[i] = h.Count(i)
		peak = max(peak, counts[i])
	}
	const width = 40
	for i, c := range counts {
		bar := 0
		if peak > 0 {
			bar = int(math.Round(float64(c) / float64(peak) * width))
		}
		fmt.Fprintf(&b, "%10.4g | %-*s %d\n", h.BinCenter(i), width, strings.Repeat("#", bar), c)
	}
	if n := h.Underflow(); n > 0 {
		fmt.Fprintf(&b, "underflow: %d\n", n)
	}
	if n := h.Overflow(); n > 0 {
		fmt.Fprintf(&b, "overflow: %d\n", n)
	}
	return b.String()
}
