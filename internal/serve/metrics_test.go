package serve

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// renderString renders the metrics against the micro test cluster.
func renderString(t *testing.T, m *Metrics, policy string) string {
	t.Helper()
	var sb strings.Builder
	m.Render(&sb, newTestCluster(t, 0), 0, policy)
	return sb.String()
}

// promValue extracts the value of an exactly-matching sample line.
func promValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no sample %q:\n%s", sample, exposition)
	return 0
}

// TestRenderEscapesLabels: label values render with %q, so quotes and
// backslashes in a policy name cannot corrupt the exposition.
func TestRenderEscapesLabels(t *testing.T) {
	out := renderString(t, NewMetrics(8), `po"li\cy`)
	want := `vod_policy_info{policy="po\"li\\cy"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("exposition lacks escaped label %s:\n%s", want, out)
	}
}

// TestRenderLatencyHistogram: the admission-latency histogram renders
// cumulatively — non-decreasing buckets, +Inf equal to _count, and _sum
// equal to the observed total.
func TestRenderLatencyHistogram(t *testing.T) {
	m := NewMetrics(8)
	lats := []time.Duration{
		50 * time.Microsecond, // below the first bucket edge
		3 * time.Millisecond,
		3 * time.Millisecond,
		40 * time.Millisecond,
		10 * time.Second, // beyond the last edge: only +Inf
	}
	for _, lat := range lats {
		m.rows[0].decision(true, false, false, lat)
	}
	out := renderString(t, m, "p")

	var prev float64 = -1
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "vod_admission_latency_seconds_bucket{") {
			continue
		}
		buckets++
		_, val, ok := strings.Cut(line, "} ")
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket decreased (%g after %g):\n%s", v, prev, out)
		}
		prev = v
	}
	if buckets != len(latencyBuckets)+1 {
		t.Fatalf("got %d bucket lines, want %d", buckets, len(latencyBuckets)+1)
	}
	count := promValue(t, out, "vod_admission_latency_seconds_count")
	if prev != count || count != float64(len(lats)) {
		t.Fatalf("+Inf bucket %g, _count %g, observations %d — all must agree", prev, count, len(lats))
	}
	var wantSum float64
	for _, lat := range lats {
		wantSum += lat.Seconds()
	}
	if got := promValue(t, out, "vod_admission_latency_seconds_sum"); got != wantSum {
		t.Fatalf("_sum = %g, want %g", got, wantSum)
	}
}

// TestRenderCountersMonotonic: outcome counters only grow across renders,
// and each decision lands in exactly one outcome.
func TestRenderCountersMonotonic(t *testing.T) {
	m := NewMetrics(8)
	m.rows[0].decision(true, false, false, time.Millisecond)
	m.rows[0].decision(false, false, false, time.Millisecond)
	first := renderString(t, m, "p")
	acc1 := promValue(t, first, `vod_requests_total{outcome="accepted"}`)
	rej1 := promValue(t, first, `vod_requests_total{outcome="rejected"}`)
	if acc1 != 1 || rej1 != 1 {
		t.Fatalf("after one accept + one reject: accepted=%g rejected=%g", acc1, rej1)
	}

	m.rows[0].decision(true, true, false, time.Millisecond)
	m.rows[0].decision(false, false, true, time.Millisecond)
	second := renderString(t, m, "p")
	for _, sample := range []string{
		`vod_requests_total{outcome="accepted"}`,
		`vod_requests_total{outcome="rejected"}`,
		"vod_rejected_draining_total",
		"vod_redirected_total",
		"vod_admission_latency_seconds_count",
	} {
		if promValue(t, second, sample) < promValue(t, first, sample) {
			t.Fatalf("%s decreased between renders", sample)
		}
	}
	if got := promValue(t, second, `vod_requests_total{outcome="accepted"}`); got != 2 {
		t.Fatalf("accepted = %g, want 2", got)
	}
	if got := promValue(t, second, "vod_redirected_total"); got != 1 {
		t.Fatalf("redirected = %g, want 1", got)
	}
	if got := promValue(t, second, "vod_rejected_draining_total"); got != 1 {
		t.Fatalf("draining = %g, want 1", got)
	}
}

// TestRenderQueueDepth: the queue-depth histogram renders when constructed
// via NewMetrics and reflects the depths observed; the zero Metrics value
// renders without it (and without panicking).
func TestRenderQueueDepth(t *testing.T) {
	m := NewMetrics(8)
	m.rows[0].observeDepth(0)
	m.rows[0].observeDepth(3)
	out := renderString(t, m, "p")
	if !strings.Contains(out, "# TYPE vod_queue_depth histogram\n") {
		t.Fatalf("exposition lacks the queue-depth histogram:\n%s", out)
	}
	if got := promValue(t, out, "vod_queue_depth_count"); got != 2 {
		t.Fatalf("vod_queue_depth_count = %g, want 2", got)
	}
	if got := promValue(t, out, "vod_queue_depth_sum"); got != 3 {
		t.Fatalf("vod_queue_depth_sum = %g, want 3", got)
	}

	var zero Metrics
	out = renderString(t, &zero, "p")
	if strings.Contains(out, "vod_queue_depth") {
		t.Fatalf("zero-value Metrics should skip the queue-depth family:\n%s", out)
	}
}

// TestRenderGolden pins the whole exposition for a fixed set of decisions,
// queue depths and lifecycle counts against testdata/metrics_render.golden,
// captured from the mutexed float histogram and the explicit request and
// latency counters of one shared panel: the per-partition rows, with the
// observations dealt across two of them, must render the same observations
// byte for byte.
func TestRenderGolden(t *testing.T) {
	m := newMetrics(8, 2)
	row := func(i int) *partStats { return &m.rows[i%2] }
	// Depths below, inside, on the edge of and beyond [0, 8).
	for i, d := range []int64{0, 1, 3, 3, 7, 8, 100} {
		row(i).observeDepth(d)
	}
	for i, d := range []struct {
		accepted, redirected, draining bool
		lat                            time.Duration
	}{
		{true, false, false, 50 * time.Microsecond},
		{true, true, false, 100 * time.Microsecond}, // on a bucket edge
		{true, false, false, 3 * time.Millisecond},
		{false, false, false, 3 * time.Millisecond},
		{false, false, true, 40 * time.Millisecond},
		{true, false, false, 1234567 * time.Nanosecond},
		{false, false, false, 10 * time.Second}, // only +Inf
	} {
		row(i).decision(d.accepted, d.redirected, d.draining, d.lat)
	}
	m.BadVideo()
	row(0).ended(true)
	row(0).ended(false)
	row(1).ended(false)
	m.FailedOver()
	m.Dropped()
	m.Retried()
	m.Reneged()
	m.BackendFailed()
	m.ReReplicated()
	m.RebalanceRound()
	m.Migrated()
	m.Evicted()
	m.Probe(true)
	m.Probe(false)
	m.SetShards(2)
	got := renderString(t, m, "least-loaded")
	want, err := os.ReadFile("testdata/metrics_render.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition diverged from the golden capture.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTelemetryRowsFillCacheLines: a partition's telemetry row and a
// listener's row are whole cache lines, so neighbours in their slices never
// share one.
func TestTelemetryRowsFillCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(partStats{}); n%64 != 0 {
		t.Errorf("partStats is %d bytes, not a whole number of 64-byte lines", n)
	}
	if n := unsafe.Sizeof(listenerStats{}); n%64 != 0 {
		t.Errorf("listenerStats is %d bytes, not a whole number of 64-byte lines", n)
	}
}
