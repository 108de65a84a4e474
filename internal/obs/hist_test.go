package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestHistWriteProm checks the Prometheus exposition invariants: cumulative
// non-decreasing buckets, underflow counted into every bucket, overflow only
// into +Inf, and _sum/_count matching the observations.
func TestHistWriteProm(t *testing.T) {
	h := NewHist(0, 10, 5) // bins of width 2: edges 2,4,6,8,10
	for _, x := range []float64{-1, 0.5, 9.5, 100} {
		h.Observe(x)
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "test_depth", "help text")
	out := buf.String()

	if !strings.Contains(out, "# HELP test_depth help text\n") ||
		!strings.Contains(out, "# TYPE test_depth histogram\n") {
		t.Fatalf("missing HELP/TYPE headers:\n%s", out)
	}

	var prev, bucketCount int64 = -1, 0
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "test_depth_bucket{le=\"")
		if !ok {
			continue
		}
		bucketCount++
		_, val, ok := strings.Cut(rest, "\"} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket value in %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("cumulative buckets decreased (%d after %d):\n%s", n, prev, out)
		}
		prev = n
	}
	if bucketCount != 6 { // 5 edges + +Inf
		t.Fatalf("got %d bucket lines, want 6:\n%s", bucketCount, out)
	}
	// The -1 underflow is ≤ every edge, so the first bucket already holds
	// it plus the 0.5 observation; 100 only reaches +Inf.
	if !strings.Contains(out, "test_depth_bucket{le=\"2\"} 2\n") {
		t.Fatalf("first bucket should hold underflow + 0.5:\n%s", out)
	}
	if !strings.Contains(out, "test_depth_bucket{le=\"10\"} 3\n") {
		t.Fatalf("last finite bucket should exclude the overflow:\n%s", out)
	}
	if !strings.Contains(out, "test_depth_bucket{le=\"+Inf\"} 4\n") {
		t.Fatalf("+Inf bucket should hold everything:\n%s", out)
	}
	if !strings.Contains(out, "test_depth_sum 109\n") {
		t.Fatalf("_sum should be 109:\n%s", out)
	}
	if !strings.Contains(out, "test_depth_count 4\n") {
		t.Fatalf("_count should be 4:\n%s", out)
	}
}

// TestHistNil: the nil histogram observes and renders as a no-op.
func TestHistNil(t *testing.T) {
	var h *Hist
	h.Observe(3)
	var buf bytes.Buffer
	h.WriteProm(&buf, "x", "y")
	if buf.Len() != 0 {
		t.Fatalf("nil hist wrote %q", buf.String())
	}
}

// TestExpHistWriteProm: doubling bounds, bucket placement at and across the
// bound (Observe buckets x ≤ bound inclusively), cumulative rendering with a
// labels string, and the billionths-resolution sum.
func TestExpHistWriteProm(t *testing.T) {
	h := NewExpHist(1e-3, 4) // bounds 0.001, 0.002, 0.004, 0.008
	for _, x := range []float64{0.0005, 0.002, 0.003, 0.1} {
		h.Observe(x)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "test_lat", `listener="3"`)
	out := buf.String()
	for _, want := range []string{
		`test_lat_bucket{listener="3",le="0.001"} 1` + "\n", // 0.0005
		`test_lat_bucket{listener="3",le="0.002"} 2` + "\n", // + 0.002 (inclusive)
		`test_lat_bucket{listener="3",le="0.004"} 3` + "\n", // + 0.003
		`test_lat_bucket{listener="3",le="0.008"} 3` + "\n",
		`test_lat_bucket{listener="3",le="+Inf"} 4` + "\n", // + 0.1 overflow
		`test_lat_sum{listener="3"} 0.1055` + "\n",
		`test_lat_count{listener="3"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP") || strings.Contains(out, "# TYPE") {
		t.Fatalf("labeled series must not write family headers:\n%s", out)
	}

	// Unlabeled series render without the empty label braces on _sum/_count.
	buf.Reset()
	h.WriteProm(&buf, "plain", "")
	if !strings.Contains(buf.String(), "plain_sum 0.1055\n") ||
		!strings.Contains(buf.String(), `plain_bucket{le="0.001"} 1`+"\n") {
		t.Fatalf("unlabeled rendering:\n%s", buf.String())
	}
}

// TestExpHistNil: the nil exponential histogram is a no-op too.
func TestExpHistNil(t *testing.T) {
	var h *ExpHist
	h.Observe(1)
	if h.Count() != 0 {
		t.Fatal("nil ExpHist counted")
	}
	var buf bytes.Buffer
	h.WriteProm(&buf, "x", "")
	if buf.Len() != 0 {
		t.Fatalf("nil ExpHist wrote %q", buf.String())
	}
}

// TestHistConcurrent: observations from several goroutines at once all land,
// in bins and in the sum, with no lock around Observe.
func TestHistConcurrent(t *testing.T) {
	h := NewHist(0, 8, 8)
	const goroutines, each = 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 10)) // 8 and 9 overflow
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	h.WriteProm(&buf, "c", "h")
	out := buf.String()
	for _, want := range []string{
		"c_bucket{le=\"1\"} 400\n",
		"c_bucket{le=\"8\"} 3200\n",
		"c_bucket{le=\"+Inf\"} 4000\n",
		"c_sum 18000\n",
		"c_count 4000\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
