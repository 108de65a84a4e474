package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the admission-latency
// histogram, spanning sub-100µs in-process decisions up to multi-second
// stalls. The rendered histogram is cumulative, Prometheus-style.
var latencyBuckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics is the daemon's lock-free instrument panel: admission outcome
// counters, session lifecycle counters, and an admission-latency histogram,
// all atomics so the hot path never serializes on telemetry. Render writes
// the Prometheus text exposition format. Settled decisions are accepted +
// rejected, which is also the latency histogram's count, so neither is a
// counter of its own.
//
// The per-decision and per-session instruments live in one row per registry
// partition (partStats), which Render sums; the rare events below are
// counted once for the daemon. The zero Metrics has no rows: it counts the
// rare events and renders zeros for the rest.
type Metrics struct {
	badVideo atomic.Int64 // requests for out-of-catalog videos

	failedOver atomic.Int64 // sessions salvaged off a drained/failed backend
	dropped    atomic.Int64 // sessions lost to a drain/crash with no failover

	retried         atomic.Int64 // admission retry attempts after a rejection
	reneged         atomic.Int64 // retrying requests that gave up (patience)
	backendFailures atomic.Int64 // confirmed backend crashes (FailBackend)
	rereplications  atomic.Int64 // repair copies landed as new replicas
	probeOK         atomic.Int64 // successful health probes
	probeFail       atomic.Int64 // failed health probes

	rebalanceRounds atomic.Int64 // completed rebalance control rounds
	migrations      atomic.Int64 // rebalance copies landed as new replicas
	evictions       atomic.Int64 // surplus replicas removed by rebalancing

	shards atomic.Int64 // session registry partitions in use

	rows []partStats // one per registry partition

	// httpStats is the sharded ingress instrument panel, attached when an
	// Ingress starts; nil until then (mux-only daemons render no vod_http_*
	// families).
	httpStats atomic.Pointer[HTTPStats]
}

// maxDepthBins caps the queue-depth histogram's resolution.
const maxDepthBins = 64

// partStats is one registry partition's row of the per-decision and
// per-session telemetry (DESIGN.md §15): outcome counters, the latency sum
// and bins, the queue-depth histogram, the ended-session counts and the
// partition's live-session gauge. A decision lands on its caller's home
// partition's row and a session's end on the row of the partition that
// registered it, so with one home per connection a row has one writing core
// at a time; rows are padded to whole cache lines so they never false-share.
type partStats struct {
	accepted  atomic.Int64
	rejected  atomic.Int64
	draining  atomic.Int64 // rejected because the daemon was draining
	redirects atomic.Int64 // accepted over the backbone
	completed atomic.Int64 // sessions that ran to their natural end
	canceled  atomic.Int64 // sessions closed early by the client
	active    atomic.Int64 // live sessions registered in the partition

	latSumNs atomic.Int64
	latBins  [len(latencyBuckets) + 1]atomic.Int64 // +Inf overflow last

	// The queue-depth histogram samples the number of active sessions seen
	// at each admission decision — the instantaneous system occupancy an
	// arriving request competes against — in depthN equal bins over
	// [0, depthMax), sized so its range covers the cluster's stream ceiling.
	// The depths are integers, so their sum is one too.
	depthBins  [maxDepthBins]atomic.Int64
	depthUnder atomic.Int64
	depthOver  atomic.Int64
	depthSum   atomic.Int64
	depthN     int64 // bins in use; constant after construction
	depthMax   int64

	_ [32]byte // pad to a whole number of cache lines
}

// decision records one settled admission decision and its latency.
func (r *partStats) decision(accepted, redirected, wasDraining bool, lat time.Duration) {
	if accepted {
		r.accepted.Add(1)
		if redirected {
			r.redirects.Add(1)
		}
	} else {
		r.rejected.Add(1)
		if wasDraining {
			r.draining.Add(1)
		}
	}
	r.latSumNs.Add(int64(lat))
	sec := lat.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	r.latBins[i].Add(1)
}

// observeDepth records the active-session count seen by one decision.
func (r *partStats) observeDepth(depth int64) {
	switch {
	case depth < 0:
		r.depthUnder.Add(1)
	case depth >= r.depthMax:
		r.depthOver.Add(1)
	default:
		r.depthBins[depth*r.depthN/r.depthMax].Add(1)
	}
	r.depthSum.Add(depth)
}

// ended records one session settled by its partition: natural reports a
// completed playback rather than a close or shutdown.
func (r *partStats) ended(natural bool) {
	if natural {
		r.completed.Add(1)
	} else {
		r.canceled.Add(1)
	}
}

// rowTotals is every partition's row summed, each count read once.
type rowTotals struct {
	accepted, rejected, draining, redirects int64
	completed, canceled                     int64
	latSumNs                                int64
	latBins                                 [len(latencyBuckets) + 1]int64
	depthBins                               [maxDepthBins]int64
	depthUnder, depthOver, depthSum         int64
}

// totals sums the partition rows.
func (m *Metrics) totals() rowTotals {
	var t rowTotals
	for i := range m.rows {
		r := &m.rows[i]
		t.accepted += r.accepted.Load()
		t.rejected += r.rejected.Load()
		t.draining += r.draining.Load()
		t.redirects += r.redirects.Load()
		t.completed += r.completed.Load()
		t.canceled += r.canceled.Load()
		t.latSumNs += r.latSumNs.Load()
		for b := range t.latBins {
			t.latBins[b] += r.latBins[b].Load()
		}
		for b := range t.depthBins[:r.depthN] {
			t.depthBins[b] += r.depthBins[b].Load()
		}
		t.depthUnder += r.depthUnder.Load()
		t.depthOver += r.depthOver.Load()
		t.depthSum += r.depthSum.Load()
	}
	return t
}

// active returns the live sessions across every partition.
func (m *Metrics) active() int64 {
	n := int64(0)
	for i := range m.rows {
		n += m.rows[i].active.Load()
	}
	return n
}

// HTTPStats is the per-listener instrument panel of the sharded ingress:
// one row of independent atomics per accept loop, so listeners never share
// a cache line of telemetry, plus a request-latency histogram per listener.
// A connection counts its requests, decisions, batches, body parse errors
// and latencies in its own connCounts and folds them into its listener's
// row before each write to the socket, so the row is touched once per flush
// rather than once per request, and a reply a client has read is counted.
type HTTPStats struct {
	ls []listenerStats
}

type listenerStats struct {
	conns       atomic.Int64 // connections accepted
	requests    atomic.Int64 // hot-path requests parsed and dispatched
	decisions   atomic.Int64 // admission decisions settled (batch counts each video)
	batches     atomic.Int64 // batch requests served
	fallbacks   atomic.Int64 // requests replayed into the net/http fallback
	parseErrors atomic.Int64 // malformed hot-path requests refused
	latency     latHist      // hot-path request latency, read-to-encoded
	_           [40]byte     // pad to whole cache lines so listeners don't false-share
}

// reqLatencyBounds are the upper bounds (seconds) of the hot-path request
// latency histogram: 10µs doubling to ~1.3s. In-process admission decisions
// cluster at the bottom, stalls show up in the overflow.
var reqLatencyBounds = func() (b [18]float64) {
	lo := 1e-5
	for i := range b {
		b[i] = lo
		lo *= 2
	}
	return b
}()

// latHist is a listener's request-latency histogram over reqLatencyBounds,
// with the sum kept in integer billionths of a second.
type latHist struct {
	bins  [len(reqLatencyBounds) + 1]atomic.Int64 // the last bin is the +Inf overflow
	count atomic.Int64
	sumE9 atomic.Int64
}

// connCounts is what one connection served since its last fold: plain
// integers, since only the connection's goroutine touches them.
type connCounts struct {
	requests, decisions, batches, parseErrors int64
	latBins                                   [len(reqLatencyBounds) + 1]int64
	latCount, latSumE9                        int64
}

// observe records one request's latency in seconds.
func (c *connCounts) observe(x float64) {
	i := 0
	for i < len(reqLatencyBounds) && x > reqLatencyBounds[i] {
		i++
	}
	c.latBins[i]++
	c.latCount++
	c.latSumE9 += int64(x * 1e9)
}

// fold adds the pending counts into listener row st and clears them.
func (c *connCounts) fold(st *listenerStats) {
	if c.requests == 0 {
		return
	}
	st.requests.Add(c.requests)
	st.decisions.Add(c.decisions)
	if c.batches != 0 {
		st.batches.Add(c.batches)
	}
	if c.parseErrors != 0 {
		st.parseErrors.Add(c.parseErrors)
	}
	for i, n := range c.latBins {
		if n != 0 {
			st.latency.bins[i].Add(n)
		}
	}
	st.latency.count.Add(c.latCount)
	st.latency.sumE9.Add(c.latSumE9)
	*c = connCounts{}
}

// writeProm renders the cumulative bucket, _sum and _count lines of one
// labeled series.
func (h *latHist) writeProm(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, ub := range reqLatencyBounds {
		cum += h.bins[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%g\"} %d\n", name, labels, ub, cum)
	}
	cum += h.bins[len(reqLatencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(h.sumE9.Load())/1e9)
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

// NewHTTPStats builds a panel for n listeners.
func NewHTTPStats(n int) *HTTPStats {
	return &HTTPStats{ls: make([]listenerStats, n)}
}

// Decisions returns the total admission decisions settled via the ingress.
func (h *HTTPStats) Decisions() int64 {
	var n int64
	for i := range h.ls {
		n += h.ls[i].decisions.Load()
	}
	return n
}

// Fallbacks returns the total requests replayed into the net/http fallback.
func (h *HTTPStats) Fallbacks() int64 {
	var n int64
	for i := range h.ls {
		n += h.ls[i].fallbacks.Load()
	}
	return n
}

// render writes the vod_http_* families, one labeled series per listener.
func (h *HTTPStats) render(w io.Writer) {
	counter := func(name, help string, get func(*listenerStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for i := range h.ls {
			fmt.Fprintf(w, "%s{listener=\"%d\"} %d\n", name, i, get(&h.ls[i]))
		}
	}
	counter("vod_http_connections_total", "Connections accepted per ingress listener.",
		func(ls *listenerStats) int64 { return ls.conns.Load() })
	counter("vod_http_requests_total", "Hot-path requests served per ingress listener.",
		func(ls *listenerStats) int64 { return ls.requests.Load() })
	counter("vod_http_decisions_total", "Admission decisions settled per ingress listener (batches count each video).",
		func(ls *listenerStats) int64 { return ls.decisions.Load() })
	counter("vod_http_batches_total", "Batch admission requests served per ingress listener.",
		func(ls *listenerStats) int64 { return ls.batches.Load() })
	counter("vod_http_fallbacks_total", "Requests replayed into the net/http fallback per ingress listener.",
		func(ls *listenerStats) int64 { return ls.fallbacks.Load() })
	counter("vod_http_parse_errors_total", "Malformed hot-path requests refused per ingress listener.",
		func(ls *listenerStats) int64 { return ls.parseErrors.Load() })
	fmt.Fprintf(w, "# HELP vod_http_request_seconds Hot-path request latency per ingress listener, read-to-encoded.\n")
	fmt.Fprintf(w, "# TYPE vod_http_request_seconds histogram\n")
	for i := range h.ls {
		h.ls[i].latency.writeProm(w, "vod_http_request_seconds", fmt.Sprintf("listener=%q", strconv.Itoa(i)))
	}
}

// AttachHTTP wires the sharded-ingress panel into /metrics.
func (m *Metrics) AttachHTTP(h *HTTPStats) { m.httpStats.Store(h) }

// NewMetrics builds the instrument panel with a queue-depth histogram
// spanning [0, maxDepth) sessions and one partition row.
func NewMetrics(maxDepth int) *Metrics { return newMetrics(maxDepth, 1) }

// newMetrics builds the panel with one row per registry partition.
func newMetrics(maxDepth, parts int) *Metrics {
	if maxDepth <= 0 {
		maxDepth = 1024
	}
	m := &Metrics{rows: make([]partStats, parts)}
	for i := range m.rows {
		m.rows[i].depthN, m.rows[i].depthMax = int64(min(maxDepth, maxDepthBins)), int64(maxDepth)
	}
	m.shards.Store(1)
	return m
}

// BadVideo records a request targeting a video outside the catalog.
func (m *Metrics) BadVideo() { m.badVideo.Add(1) }

// FailedOver records a session salvaged onto another backend.
func (m *Metrics) FailedOver() { m.failedOver.Add(1) }

// Dropped records a session lost to a backend drain or crash with no
// failover target.
func (m *Metrics) Dropped() { m.dropped.Add(1) }

// Retried records one admission retry attempt after a capacity rejection.
func (m *Metrics) Retried() { m.retried.Add(1) }

// Reneged records a retrying request that gave up before being admitted.
func (m *Metrics) Reneged() { m.reneged.Add(1) }

// BackendFailed records one confirmed backend crash.
func (m *Metrics) BackendFailed() { m.backendFailures.Add(1) }

// ReReplicated records one repair copy landing as a new replica.
func (m *Metrics) ReReplicated() { m.rereplications.Add(1) }

// RebalanceRound records one completed rebalance control round.
func (m *Metrics) RebalanceRound() { m.rebalanceRounds.Add(1) }

// Migrated records one rebalance copy landing as a new replica.
func (m *Metrics) Migrated() { m.migrations.Add(1) }

// Evicted records one surplus replica removed by the rebalancer.
func (m *Metrics) Evicted() { m.evictions.Add(1) }

// SnapshotConflicts always returns 0: every admission commits on the
// calling goroutine, so none is ever retried on a stale snapshot. It stays
// for the benchmark's serve.snapshot_conflicts reading.
func (m *Metrics) SnapshotConflicts() int64 { return 0 }

// SetShards records how many session registry partitions the daemon runs.
func (m *Metrics) SetShards(n int) { m.shards.Store(int64(n)) }

// Probe records one health-probe result.
func (m *Metrics) Probe(ok bool) {
	if ok {
		m.probeOK.Add(1)
	} else {
		m.probeFail.Add(1)
	}
}

// Accepted returns the number of accepted admission decisions so far.
func (m *Metrics) Accepted() int64 { return m.totals().accepted }

// Requests returns the number of settled admission decisions so far.
func (m *Metrics) Requests() int64 {
	t := m.totals()
	return t.accepted + t.rejected
}

// Render writes the Prometheus text exposition of the counters plus the
// per-server gauges read from the cluster.
func (m *Metrics) Render(w io.Writer, c *Cluster, active int64, policy string) {
	t := m.totals()
	accepted, rejected := t.accepted, t.rejected
	fmt.Fprintf(w, "# HELP vod_requests_total Settled admission decisions by outcome.\n")
	fmt.Fprintf(w, "# TYPE vod_requests_total counter\n")
	fmt.Fprintf(w, "vod_requests_total{outcome=\"accepted\"} %d\n", accepted)
	fmt.Fprintf(w, "vod_requests_total{outcome=\"rejected\"} %d\n", rejected)
	fmt.Fprintf(w, "# HELP vod_rejected_draining_total Rejections issued while the daemon was draining.\n")
	fmt.Fprintf(w, "# TYPE vod_rejected_draining_total counter\n")
	fmt.Fprintf(w, "vod_rejected_draining_total %d\n", t.draining)
	fmt.Fprintf(w, "# HELP vod_redirected_total Admissions served over the internal backbone.\n")
	fmt.Fprintf(w, "# TYPE vod_redirected_total counter\n")
	fmt.Fprintf(w, "vod_redirected_total %d\n", t.redirects)
	fmt.Fprintf(w, "# HELP vod_bad_video_total Requests for videos outside the catalog.\n")
	fmt.Fprintf(w, "# TYPE vod_bad_video_total counter\n")
	fmt.Fprintf(w, "vod_bad_video_total %d\n", m.badVideo.Load())
	fmt.Fprintf(w, "# HELP vod_sessions_ended_total Ended sessions by cause.\n")
	fmt.Fprintf(w, "# TYPE vod_sessions_ended_total counter\n")
	fmt.Fprintf(w, "vod_sessions_ended_total{cause=\"completed\"} %d\n", t.completed)
	fmt.Fprintf(w, "vod_sessions_ended_total{cause=\"canceled\"} %d\n", t.canceled)
	fmt.Fprintf(w, "vod_sessions_ended_total{cause=\"dropped\"} %d\n", m.dropped.Load())
	fmt.Fprintf(w, "# HELP vod_failovers_total Sessions salvaged off a drained or failed backend.\n")
	fmt.Fprintf(w, "# TYPE vod_failovers_total counter\n")
	fmt.Fprintf(w, "vod_failovers_total %d\n", m.failedOver.Load())
	fmt.Fprintf(w, "# HELP vod_retries_total Admission retry attempts after a capacity rejection.\n")
	fmt.Fprintf(w, "# TYPE vod_retries_total counter\n")
	fmt.Fprintf(w, "vod_retries_total %d\n", m.retried.Load())
	fmt.Fprintf(w, "# HELP vod_reneges_total Retrying requests that gave up before admission.\n")
	fmt.Fprintf(w, "# TYPE vod_reneges_total counter\n")
	fmt.Fprintf(w, "vod_reneges_total %d\n", m.reneged.Load())
	fmt.Fprintf(w, "# HELP vod_backend_failures_total Confirmed backend crashes.\n")
	fmt.Fprintf(w, "# TYPE vod_backend_failures_total counter\n")
	fmt.Fprintf(w, "vod_backend_failures_total %d\n", m.backendFailures.Load())
	fmt.Fprintf(w, "# HELP vod_rereplications_total Repair copies landed as new replicas.\n")
	fmt.Fprintf(w, "# TYPE vod_rereplications_total counter\n")
	fmt.Fprintf(w, "vod_rereplications_total %d\n", m.rereplications.Load())
	fmt.Fprintf(w, "# HELP vod_rebalance_rounds_total Completed rebalance control rounds.\n")
	fmt.Fprintf(w, "# TYPE vod_rebalance_rounds_total counter\n")
	fmt.Fprintf(w, "vod_rebalance_rounds_total %d\n", m.rebalanceRounds.Load())
	fmt.Fprintf(w, "# HELP vod_migrations_total Rebalance copies landed as new replicas.\n")
	fmt.Fprintf(w, "# TYPE vod_migrations_total counter\n")
	fmt.Fprintf(w, "vod_migrations_total %d\n", m.migrations.Load())
	fmt.Fprintf(w, "# HELP vod_evictions_total Surplus replicas removed by rebalancing.\n")
	fmt.Fprintf(w, "# TYPE vod_evictions_total counter\n")
	fmt.Fprintf(w, "vod_evictions_total %d\n", m.evictions.Load())
	fmt.Fprintf(w, "# HELP vod_dispatch_shards Session registry partitions in use, each with its own lock and expiry goroutine.\n")
	fmt.Fprintf(w, "# TYPE vod_dispatch_shards gauge\n")
	fmt.Fprintf(w, "vod_dispatch_shards %d\n", m.shards.Load())
	fmt.Fprintf(w, "# HELP vod_health_probes_total Health-probe results.\n")
	fmt.Fprintf(w, "# TYPE vod_health_probes_total counter\n")
	fmt.Fprintf(w, "vod_health_probes_total{result=\"ok\"} %d\n", m.probeOK.Load())
	fmt.Fprintf(w, "vod_health_probes_total{result=\"fail\"} %d\n", m.probeFail.Load())
	fmt.Fprintf(w, "# HELP vod_sessions_active Currently active sessions.\n")
	fmt.Fprintf(w, "# TYPE vod_sessions_active gauge\n")
	fmt.Fprintf(w, "vod_sessions_active %d\n", active)
	fmt.Fprintf(w, "# HELP vod_policy_info Admission policy in use (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE vod_policy_info gauge\n")
	fmt.Fprintf(w, "vod_policy_info{policy=%q} 1\n", policy)

	fmt.Fprintf(w, "# HELP vod_server_capacity_bps Outgoing link capacity per backend.\n")
	fmt.Fprintf(w, "# TYPE vod_server_capacity_bps gauge\n")
	for s := 0; s < c.Servers(); s++ {
		fmt.Fprintf(w, "vod_server_capacity_bps{server=\"%d\"} %d\n", s, c.Capacity(s))
	}
	fmt.Fprintf(w, "# HELP vod_server_used_bps Outgoing bandwidth in use per backend.\n")
	fmt.Fprintf(w, "# TYPE vod_server_used_bps gauge\n")
	for s := 0; s < c.Servers(); s++ {
		fmt.Fprintf(w, "vod_server_used_bps{server=\"%d\"} %d\n", s, c.Used(s))
	}
	fmt.Fprintf(w, "# HELP vod_server_active_streams Active streams per backend outgoing link.\n")
	fmt.Fprintf(w, "# TYPE vod_server_active_streams gauge\n")
	for s := 0; s < c.Servers(); s++ {
		fmt.Fprintf(w, "vod_server_active_streams{server=\"%d\"} %d\n", s, c.Active(s))
	}
	fmt.Fprintf(w, "# HELP vod_server_draining Whether the backend refuses new placements.\n")
	fmt.Fprintf(w, "# TYPE vod_server_draining gauge\n")
	for s := 0; s < c.Servers(); s++ {
		d := 0
		if !c.Eligible(s) {
			d = 1
		}
		fmt.Fprintf(w, "vod_server_draining{server=\"%d\"} %d\n", s, d)
	}
	fmt.Fprintf(w, "# HELP vod_backend_state Backend health state (0 up, 1 suspect, 2 recovering, 3 draining, 4 down).\n")
	fmt.Fprintf(w, "# TYPE vod_backend_state gauge\n")
	for s := 0; s < c.Servers(); s++ {
		st := c.State(s)
		fmt.Fprintf(w, "vod_backend_state{server=\"%d\",state=%q} %d\n", s, st.String(), int(st))
	}
	fmt.Fprintf(w, "# HELP vod_backbone_used_bps Internal backbone bandwidth in use.\n")
	fmt.Fprintf(w, "# TYPE vod_backbone_used_bps gauge\n")
	fmt.Fprintf(w, "vod_backbone_used_bps %d\n", c.BackboneUsed())
	fmt.Fprintf(w, "# HELP vod_layout_version Monotone layout version; bumps on every replica-directory change.\n")
	fmt.Fprintf(w, "# TYPE vod_layout_version gauge\n")
	fmt.Fprintf(w, "vod_layout_version %d\n", c.LayoutVersion())

	fmt.Fprintf(w, "# HELP vod_admission_latency_seconds Admission decision latency.\n")
	fmt.Fprintf(w, "# TYPE vod_admission_latency_seconds histogram\n")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += t.latBins[i]
		fmt.Fprintf(w, "vod_admission_latency_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += t.latBins[len(latencyBuckets)]
	fmt.Fprintf(w, "vod_admission_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "vod_admission_latency_seconds_sum %g\n", float64(t.latSumNs)/float64(time.Second))
	fmt.Fprintf(w, "vod_admission_latency_seconds_count %d\n", accepted+rejected)

	m.renderQueueDepth(w, &t)

	if hs := m.httpStats.Load(); hs != nil {
		hs.render(w)
	}
}

// renderQueueDepth writes the vod_queue_depth histogram family of the
// summed rows t: cumulative buckets at each bin's upper edge plus +Inf, then
// _sum and _count. Depths below the range count into every bucket, depths
// at or above it only into +Inf. Each count is read once, so the buckets
// stay cumulative and +Inf equals _count while observations land. The zero
// Metrics writes nothing.
func (m *Metrics) renderQueueDepth(w io.Writer, t *rowTotals) {
	if len(m.rows) == 0 {
		return
	}
	n, hi := m.rows[0].depthN, m.rows[0].depthMax
	const name = "vod_queue_depth"
	fmt.Fprintf(w, "# HELP %s Active sessions observed at each admission decision.\n", name)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	width := float64(hi) / float64(n)
	cum := t.depthUnder
	for b, c := range t.depthBins[:n] {
		cum += c
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, width*float64(b+1), cum)
	}
	cum += t.depthOver
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(t.depthSum))
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
