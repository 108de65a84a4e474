package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"vodcluster/internal/obs"
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
// the Prometheus text exposition format.
type Metrics struct {
	requests  atomic.Int64 // settled admission decisions
	accepted  atomic.Int64
	rejected  atomic.Int64
	draining  atomic.Int64 // rejected because the daemon was draining
	redirects atomic.Int64 // accepted over the backbone
	badVideo  atomic.Int64 // requests for out-of-catalog videos

	completed  atomic.Int64 // sessions that ran to their natural end
	canceled   atomic.Int64 // sessions closed early by the client
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

	latCount atomic.Int64
	latSumNs atomic.Int64
	latBins  [len(latencyBuckets) + 1]atomic.Int64 // +Inf overflow last

	// queueDepth samples the number of active sessions observed at each
	// admission decision — the instantaneous system occupancy an arriving
	// request competes against. Built on the shared obs histogram so its
	// range follows the cluster's stream ceiling; nil (zero-value Metrics)
	// skips both recording and rendering.
	queueDepth *obs.Hist

	// httpStats is the sharded ingress instrument panel, attached when an
	// Ingress starts; nil until then (mux-only daemons render no vod_http_*
	// families).
	httpStats atomic.Pointer[HTTPStats]
}

// HTTPStats is the per-listener instrument panel of the sharded ingress:
// one row of independent atomics per accept loop, so listeners never share
// a cache line of telemetry, plus a request-latency histogram per listener.
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
	latency     *obs.ExpHist // hot-path request latency, read-to-encoded
	_           [24]byte     // pad to a cache line so listeners don't false-share
}

// NewHTTPStats builds a panel for n listeners.
func NewHTTPStats(n int) *HTTPStats {
	h := &HTTPStats{ls: make([]listenerStats, n)}
	for i := range h.ls {
		// 10µs..~1.3s exponential bounds: in-process admission decisions
		// cluster at the bottom, stalls show up in the overflow.
		h.ls[i].latency = obs.NewExpHist(1e-5, 18)
	}
	return h
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
		h.ls[i].latency.WriteProm(w, "vod_http_request_seconds", fmt.Sprintf("listener=%q", strconv.Itoa(i)))
	}
}

// AttachHTTP wires the sharded-ingress panel into /metrics.
func (m *Metrics) AttachHTTP(h *HTTPStats) { m.httpStats.Store(h) }

// NewMetrics builds the instrument panel with a queue-depth histogram
// spanning [0, maxDepth) sessions. The zero Metrics value stays valid for
// callers that only need the atomic counters.
func NewMetrics(maxDepth int) *Metrics {
	if maxDepth <= 0 {
		maxDepth = 1024
	}
	bins := 64
	if maxDepth < bins {
		bins = maxDepth
	}
	m := &Metrics{queueDepth: obs.NewHist(0, float64(maxDepth), bins)}
	m.shards.Store(1)
	return m
}

// ObserveQueueDepth records the active-session count seen by one admission
// decision.
func (m *Metrics) ObserveQueueDepth(depth float64) { m.queueDepth.Observe(depth) }

// Decision records one settled admission decision and its latency.
func (m *Metrics) Decision(accepted, redirected, wasDraining bool, lat time.Duration) {
	m.requests.Add(1)
	if accepted {
		m.accepted.Add(1)
		if redirected {
			m.redirects.Add(1)
		}
	} else {
		m.rejected.Add(1)
		if wasDraining {
			m.draining.Add(1)
		}
	}
	m.latCount.Add(1)
	m.latSumNs.Add(int64(lat))
	sec := lat.Seconds()
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	m.latBins[i].Add(1)
}

// BadVideo records a request targeting a video outside the catalog.
func (m *Metrics) BadVideo() { m.badVideo.Add(1) }

// Completed records a session ending at its natural departure time.
func (m *Metrics) Completed() { m.completed.Add(1) }

// Canceled records a session closed early by the client.
func (m *Metrics) Canceled() { m.canceled.Add(1) }

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
func (m *Metrics) Accepted() int64 { return m.accepted.Load() }

// Requests returns the number of settled admission decisions so far.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// Render writes the Prometheus text exposition of the counters plus the
// per-server gauges read from the cluster.
func (m *Metrics) Render(w io.Writer, c *Cluster, active int64, policy string) {
	fmt.Fprintf(w, "# HELP vod_requests_total Settled admission decisions by outcome.\n")
	fmt.Fprintf(w, "# TYPE vod_requests_total counter\n")
	fmt.Fprintf(w, "vod_requests_total{outcome=\"accepted\"} %d\n", m.accepted.Load())
	fmt.Fprintf(w, "vod_requests_total{outcome=\"rejected\"} %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# HELP vod_rejected_draining_total Rejections issued while the daemon was draining.\n")
	fmt.Fprintf(w, "# TYPE vod_rejected_draining_total counter\n")
	fmt.Fprintf(w, "vod_rejected_draining_total %d\n", m.draining.Load())
	fmt.Fprintf(w, "# HELP vod_redirected_total Admissions served over the internal backbone.\n")
	fmt.Fprintf(w, "# TYPE vod_redirected_total counter\n")
	fmt.Fprintf(w, "vod_redirected_total %d\n", m.redirects.Load())
	fmt.Fprintf(w, "# HELP vod_bad_video_total Requests for videos outside the catalog.\n")
	fmt.Fprintf(w, "# TYPE vod_bad_video_total counter\n")
	fmt.Fprintf(w, "vod_bad_video_total %d\n", m.badVideo.Load())
	fmt.Fprintf(w, "# HELP vod_sessions_ended_total Ended sessions by cause.\n")
	fmt.Fprintf(w, "# TYPE vod_sessions_ended_total counter\n")
	fmt.Fprintf(w, "vod_sessions_ended_total{cause=\"completed\"} %d\n", m.completed.Load())
	fmt.Fprintf(w, "vod_sessions_ended_total{cause=\"canceled\"} %d\n", m.canceled.Load())
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
		if c.Draining(s) {
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
		cum += m.latBins[i].Load()
		fmt.Fprintf(w, "vod_admission_latency_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += m.latBins[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "vod_admission_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "vod_admission_latency_seconds_sum %g\n", float64(m.latSumNs.Load())/float64(time.Second))
	fmt.Fprintf(w, "vod_admission_latency_seconds_count %d\n", m.latCount.Load())

	m.queueDepth.WriteProm(w, "vod_queue_depth",
		"Active sessions observed at each admission decision.")

	if hs := m.httpStats.Load(); hs != nil {
		hs.render(w)
	}
}
