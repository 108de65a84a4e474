package obs

import (
	"fmt"
	"io"
	"sync/atomic"

	"vodcluster/internal/stats"
)

// Hist is a concurrency-safe histogram built on stats.Histogram that
// renders itself in the Prometheus text exposition format. Unlike the
// serving daemon's atomic admission-latency histogram (whose bucket set is
// fixed at compile time), Hist takes its range and resolution at
// construction, which is what run-specific instruments — queue depth,
// per-phase latencies — need. stats.Histogram counts without a lock, so a
// per-decision Observe never serializes goroutines. A nil *Hist is a valid
// no-op, mirroring the nil-Tracer convention.
type Hist struct {
	h *stats.Histogram
}

// NewHist builds a histogram with n bins spanning [lo, hi).
func NewHist(lo, hi float64, n int) *Hist {
	return &Hist{h: stats.NewHistogram(lo, hi, n)}
}

// Observe records one observation; a no-op on a nil Hist.
func (h *Hist) Observe(x float64) {
	if h == nil {
		return
	}
	h.h.Add(x)
}

// WriteProm renders the histogram as one Prometheus histogram family:
// cumulative buckets at each bin's upper edge plus +Inf, then _sum and
// _count. Observations below the range count into every bucket (they are
// ≤ every edge); observations at or above it only into +Inf. A nil Hist
// writes nothing, so callers render optional instruments unconditionally.
// Each count is read once, so the buckets stay cumulative and +Inf equals
// _count while observations land.
func (h *Hist) WriteProm(w io.Writer, name, help string) {
	if h == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := h.h.Underflow()
	for i := 0; i < h.h.Bins(); i++ {
		cum += h.h.Count(i)
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, h.h.BinUpper(i), cum)
	}
	cum += h.h.Overflow()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// ExpHist is a lock-free histogram with exponentially growing bucket upper
// bounds (each bound doubles the previous one), built for hot-path latency
// instruments: Observe is a bucket search over a small fixed table plus two
// atomic adds, so a per-request recording never serializes goroutines the
// way a mutexed histogram would. The sum is accumulated in integer billionths,
// which keeps it an atomic add at nanosecond precision for seconds-valued
// observations. A nil *ExpHist is a valid no-op.
type ExpHist struct {
	bounds []float64
	bins   []atomic.Int64 // len(bounds)+1; the last bin is the +Inf overflow
	count  atomic.Int64
	sumE9  atomic.Int64 // sum of observations, in billionths (1e-9 units)
}

// NewExpHist builds a histogram whose n finite bucket bounds start at lo and
// double: lo, 2lo, 4lo, … — e.g. lo=1e-5, n=18 spans 10µs to ~1.3s.
func NewExpHist(lo float64, n int) *ExpHist {
	if lo <= 0 || n < 1 {
		panic(fmt.Sprintf("obs: NewExpHist(%g, %d): need lo > 0 and n >= 1", lo, n))
	}
	h := &ExpHist{bounds: make([]float64, n), bins: make([]atomic.Int64, n+1)}
	for i := range h.bounds {
		h.bounds[i] = lo
		lo *= 2
	}
	return h
}

// Observe records one observation; a no-op on a nil ExpHist.
func (h *ExpHist) Observe(x float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.bins[i].Add(1)
	h.count.Add(1)
	h.sumE9.Add(int64(x * 1e9))
}

// Count returns the number of observations so far.
func (h *ExpHist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// WriteProm renders the cumulative bucket, _sum, and _count lines of one
// Prometheus histogram series. Unlike Hist.WriteProm it does NOT write the
// # HELP / # TYPE headers: ExpHist instruments are typically labeled (one
// series per listener shard under a shared family name), so the caller
// prints the headers once and then renders each series with its own labels
// string (e.g. `listener="0"`; empty for an unlabeled series).
func (h *ExpHist) WriteProm(w io.Writer, name, labels string) {
	if h == nil {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += h.bins[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, ub, cum)
	}
	cum += h.bins[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumE9.Load())/1e9)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumE9.Load())/1e9)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
	}
}
