// Package metrics collects the performance measures the paper evaluates:
// rejection rate, the load imbalance degree L under both of the paper's
// definitions, per-server utilization, and cross-run aggregates with
// confidence intervals.
package metrics

import (
	"fmt"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// Collector accumulates measurements during one simulation run.
// Create with NewCollector; all methods are single-goroutine.
type Collector struct {
	numServers int
	capacities []float64 // outgoing bits/s per server

	arrivals  int
	requests  int
	accepted  int
	rejected  int
	redirects int
	dropped   int

	failedOver     int
	retried        int
	retrySucceeded int
	reneged        int
	degraded       int
	rereplications int
	degradeRatio   stats.Summary // delivered/nominal over degraded admissions

	servedPerServer []int

	imbMax  stats.Summary // Eq. 2 on sampled outgoing bandwidth
	imbCV   stats.Summary // Eq. 3 normalized by mean
	imbCap  stats.Summary // capacity-normalized spread (max−mean)/capacity
	peakImb float64

	utilization    stats.Summary // mean server utilization per sample
	peakConcurrent int
	sessionRate    stats.Summary // encoding rate of accepted sessions (bits/s)
}

// NewCollector builds a collector for servers with the given outgoing
// capacities in bits/s (one entry per server; heterogeneous clusters pass
// their per-server values).
func NewCollector(capacities []float64) *Collector {
	n := len(capacities)
	return &Collector{
		numServers:      n,
		capacities:      append([]float64(nil), capacities...),
		servedPerServer: make([]int, n),
	}
}

// NewUniformCollector builds a collector for n servers sharing one capacity.
func NewUniformCollector(n int, capacity float64) *Collector {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = capacity
	}
	return NewCollector(caps)
}

// Arrival records one arriving request, measured or not. It counts every
// request the run settled an admission decision for — the length of the
// run's KindArrival decision stream — so decision journals can be checked
// against results. Requests, by contrast, counts only measured arrivals.
func (c *Collector) Arrival() {
	c.arrivals++
}

// Request records an arrival and its outcome. server is the outgoing server
// for accepted requests and ignored otherwise.
func (c *Collector) Request(acceptedBy int, accepted, redirected bool) {
	c.requests++
	if !accepted {
		c.rejected++
		return
	}
	c.accepted++
	if redirected {
		c.redirects++
	}
	if acceptedBy >= 0 && acceptedBy < c.numServers {
		c.servedPerServer[acceptedBy]++
	}
}

// Drop records n streams torn down mid-playback by a server failure.
func (c *Collector) Drop(n int) {
	c.dropped += n
}

// FailOver records n interrupted streams salvaged onto a surviving replica.
// Failed-over streams are not dropped and not re-counted as requests.
func (c *Collector) FailOver(n int) {
	c.failedOver += n
}

// RetryEnqueued records a rejected arrival entering the retry queue instead
// of counting as a rejection. The arrival is not yet a settled request: it
// is counted in Requests when it resolves — by Request on eventual
// admission, or by Renege on giving up — so each arrival counts exactly once.
func (c *Collector) RetryEnqueued() {
	c.retried++
}

// RetrySuccess records a queued retry finally admitted; the admission itself
// is reported through Request by the caller, so this only counts the
// retry-path outcome.
func (c *Collector) RetrySuccess() {
	c.retrySucceeded++
}

// Renege records a queued retry abandoning the system after exhausting its
// patience — a user-visible service failure distinct from an instant reject.
// It settles the arrival deferred by RetryEnqueued, so it counts a request.
func (c *Collector) Renege() {
	c.requests++
	c.reneged++
}

// Degrade records an admission served from a lower-rate copy: delivered and
// nominal are the served and full-quality encoding rates in bits/s.
func (c *Collector) Degrade(delivered, nominal float64) {
	c.degraded++
	if nominal > 0 {
		c.degradeRatio.Add(delivered / nominal)
	}
}

// ReReplications records n repair copies that completed during the run.
func (c *Collector) ReReplications(n int) {
	c.rereplications += n
}

// ObserveSessionRate records the encoding rate (bits/s) of an accepted
// session — the delivered-quality metric of the scalable-bit-rate runtime.
func (c *Collector) ObserveSessionRate(bps float64) {
	c.sessionRate.Add(bps)
}

// SampleLoads records one snapshot of per-server outgoing bandwidth usage
// (bits/s) and the number of concurrent streams.
func (c *Collector) SampleLoads(usedBW []float64, concurrent int) {
	l := core.ImbalanceMax(usedBW)
	c.imbMax.Add(l)
	if l > c.peakImb {
		c.peakImb = l
	}
	c.imbCV.Add(core.ImbalanceCV(usedBW))
	// Utilization-space spread: u_s = load_s / capacity_s; the
	// capacity-normalized imbalance is max u − mean u, which reduces to
	// (max l − l̄)/B on homogeneous clusters.
	meanU := 0.0
	maxU := 0.0
	for s, l := range usedBW {
		u := l / c.capacities[s]
		meanU += u
		if u > maxU {
			maxU = u
		}
	}
	meanU /= float64(len(usedBW))
	c.imbCap.Add(maxU - meanU)
	c.utilization.Add(meanU)
	if concurrent > c.peakConcurrent {
		c.peakConcurrent = concurrent
	}
}

// Result freezes the collector into the per-run result record.
func (c *Collector) Result() Result {
	r := Result{
		Arrivals:        c.arrivals,
		Requests:        c.requests,
		Accepted:        c.accepted,
		Rejected:        c.rejected,
		Redirected:      c.redirects,
		Dropped:         c.dropped,
		ServedPerServer: append([]int(nil), c.servedPerServer...),
		ImbalanceAvg:    c.imbMax.Mean(),
		ImbalancePeak:   c.peakImb,
		ImbalanceCVAvg:  c.imbCV.Mean(),
		ImbalanceCapAvg: c.imbCap.Mean(),
		MeanUtilization: c.utilization.Mean(),
		PeakConcurrent:  c.peakConcurrent,
	}
	r.FailedOver = c.failedOver
	r.Retried = c.retried
	r.RetrySucceeded = c.retrySucceeded
	r.Reneged = c.reneged
	r.Degraded = c.degraded
	r.ReReplications = c.rereplications
	r.DegradationRatio = 1.0
	if c.degradeRatio.N() > 0 {
		r.DegradationRatio = c.degradeRatio.Mean()
	}
	r.MeanSessionRateMbps = c.sessionRate.Mean() / 1e6
	if c.requests > 0 {
		r.RejectionRate = float64(c.rejected) / float64(c.requests)
		// Failure rate counts turned-away, reneged, and torn-down sessions —
		// every user-visible service failure.
		r.FailureRate = float64(c.rejected+c.reneged+c.dropped) / float64(c.requests)
	}
	return r
}

// Result is the outcome of one simulation run.
type Result struct {
	// Arrivals counts every arriving request, measured or not — the
	// length of the run's arrival-decision stream (warmup arrivals
	// included), so a decision journal of the same run has exactly this
	// many KindArrival records.
	Arrivals int
	// Requests, Accepted, Rejected count measured arrivals and their
	// outcomes.
	Requests, Accepted, Rejected int
	// Redirected counts streams admitted over the backbone.
	Redirected int
	// Dropped counts streams torn down mid-playback by server failures.
	Dropped int
	// FailedOver counts interrupted streams salvaged onto surviving replicas;
	// Retried counts rejected arrivals that entered the retry queue, of which
	// RetrySucceeded were eventually admitted and Reneged gave up.
	FailedOver, Retried, RetrySucceeded, Reneged int
	// Degraded counts admissions served from a lower-rate copy;
	// DegradationRatio is the mean delivered/nominal encoding-rate ratio over
	// those admissions (1 when nothing was degraded).
	Degraded         int
	DegradationRatio float64
	// ReReplications counts repair copies completed during the run.
	ReReplications int
	// RejectionRate is Rejected / Requests.
	RejectionRate float64
	// FailureRate is (Rejected + Reneged + Dropped) / Requests — every way a
	// client fails to receive its full video.
	FailureRate float64
	// ServedPerServer counts accepted requests per outgoing server.
	ServedPerServer []int
	// ImbalanceAvg is the time-average of the Eq. 2 load imbalance degree
	// sampled on outgoing bandwidth; ImbalancePeak its maximum sample.
	ImbalanceAvg, ImbalancePeak float64
	// ImbalanceCVAvg is the time-average of the Eq. 3 (std-dev) imbalance,
	// normalized by the mean load.
	ImbalanceCVAvg float64
	// ImbalanceCapAvg is the time-average of the capacity-normalized load
	// spread (max_j l_j − l̄) / capacity. Unlike the mean-relative Eq. 2, it
	// is small both at light load (tiny absolute spread) and past
	// saturation (every link pegged), peaking at mid load — the shape the
	// paper's measured Figure 6 curves trace.
	ImbalanceCapAvg float64
	// MeanUtilization is the time-average of mean outgoing-link
	// utilization across servers, in [0, 1].
	MeanUtilization float64
	// PeakConcurrent is the largest number of simultaneous streams seen.
	PeakConcurrent int
	// MeanSessionRateMbps is the average encoding rate of accepted
	// sessions in Mb/s — constant under the paper's fixed-rate model,
	// informative for scalable-bit-rate layouts where the served copy
	// decides the quality.
	MeanSessionRateMbps float64
	// Events counts the discrete events the engine executed during the
	// run. It is deterministic for a given configuration and seed (so it
	// survives the bit-identical replay tests), and dividing it by a
	// measured wall clock gives the simulator's events/s throughput
	// (./benchmark's sim.events_per_s).
	Events int
}

// String summarizes the run; resilience counters appear only when exercised.
func (r Result) String() string {
	s := fmt.Sprintf("requests=%d rejected=%d (%.2f%%) redirected=%d L_avg=%.3f L_peak=%.3f util=%.2f",
		r.Requests, r.Rejected, 100*r.RejectionRate, r.Redirected, r.ImbalanceAvg, r.ImbalancePeak, r.MeanUtilization)
	if r.FailedOver > 0 || r.Retried > 0 || r.Degraded > 0 || r.ReReplications > 0 {
		s += fmt.Sprintf(" failover=%d retried=%d/%d reneged=%d degraded=%d (ratio %.2f) rerepl=%d",
			r.FailedOver, r.RetrySucceeded, r.Retried, r.Reneged, r.Degraded, r.DegradationRatio, r.ReReplications)
	}
	return s
}

// Aggregate summarizes the same metric across replicated runs.
type Aggregate struct {
	// RejectionRate, ImbalanceAvg, ImbalancePeak, MeanUtilization, and
	// Redirected aggregate the per-run values of the same name.
	RejectionRate    stats.Summary
	FailureRate      stats.Summary
	Dropped          stats.Summary
	FailedOver       stats.Summary
	Reneged          stats.Summary
	Degraded         stats.Summary
	DegradationRatio stats.Summary
	ReReplications   stats.Summary
	SessionRateMbps  stats.Summary
	ImbalanceAvg     stats.Summary
	ImbalancePeak    stats.Summary
	ImbalanceCVAvg   stats.Summary
	ImbalanceCapAvg  stats.Summary
	MeanUtilization  stats.Summary
	Redirected       stats.Summary
}

// Add folds one run's result into the aggregate.
func (a *Aggregate) Add(r Result) {
	a.RejectionRate.Add(r.RejectionRate)
	a.FailureRate.Add(r.FailureRate)
	a.Dropped.Add(float64(r.Dropped))
	a.FailedOver.Add(float64(r.FailedOver))
	a.Reneged.Add(float64(r.Reneged))
	a.Degraded.Add(float64(r.Degraded))
	a.DegradationRatio.Add(r.DegradationRatio)
	a.ReReplications.Add(float64(r.ReReplications))
	a.SessionRateMbps.Add(r.MeanSessionRateMbps)
	a.ImbalanceAvg.Add(r.ImbalanceAvg)
	a.ImbalancePeak.Add(r.ImbalancePeak)
	a.ImbalanceCVAvg.Add(r.ImbalanceCVAvg)
	a.ImbalanceCapAvg.Add(r.ImbalanceCapAvg)
	a.MeanUtilization.Add(r.MeanUtilization)
	a.Redirected.Add(float64(r.Redirected))
}

// Runs returns the number of results aggregated.
func (a *Aggregate) Runs() int { return a.RejectionRate.N() }

// String reports mean rejection rate and imbalance with 95% CIs.
func (a *Aggregate) String() string {
	return fmt.Sprintf("runs=%d reject=%.3f%%±%.3f L=%.3f±%.3f util=%.3f",
		a.Runs(),
		100*a.RejectionRate.Mean(), 100*a.RejectionRate.CI95(),
		a.ImbalanceAvg.Mean(), a.ImbalanceAvg.CI95(),
		a.MeanUtilization.Mean())
}
