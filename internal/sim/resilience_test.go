package sim

import (
	"math"
	"reflect"
	"testing"

	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/resilience"
	"vodcluster/internal/workload"
)

// resilienceScenario builds a deterministic two-server cluster for scripted
// failure tests: 12 Mb/s links (three 4 Mb/s streams each), v0 on both
// servers, v1 on server 1 only. Video duration is the given number of
// seconds so session lifetimes are easy to script around.
func resilienceScenario(t testing.TB, duration float64) (*core.Problem, *core.Layout) {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.6, BitRate: 4 * core.Mbps, Duration: duration},
		{ID: 1, Popularity: 0.4, BitRate: 4 * core.Mbps, Duration: duration},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         2,
		StoragePerServer:   4 * c[0].SizeBytes(),
		BandwidthPerServer: 12 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(2)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 1}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return p, l
}

func traceOf(reqs ...workload.Request) *workload.Trace {
	return &workload.Trace{Requests: reqs}
}

func firstAvailable() cluster.Scheduler { return cluster.FirstAvailable{} }

// TestResilienceAllOffMatchesBaseline is the bit-for-bit guarantee: a policy
// with every mechanism disabled must reproduce the nil-policy run exactly,
// including under stochastic failures.
func TestResilienceAllOffMatchesBaseline(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	f := &avail.FailureModel{MTBF: 30 * core.Minute, MTTR: 10 * core.Minute}
	for _, withFailures := range []bool{false, true} {
		cfg := Config{Problem: p, Layout: layout, Seed: 3}
		if withFailures {
			cfg.Failures = f
		}
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Resilience = &resilience.Policy{}
		off, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, off) {
			t.Fatalf("all-off policy diverged from baseline (failures=%v):\n%+v\nvs\n%+v",
				withFailures, base, off)
		}
	}
}

// TestScriptedFailoverExactCounts tears one server down under a replayed
// trace and asserts the exact failover/drop split. The rotation lands v0's
// streams alternately: server 0 gets streams 1 and 3, server 1 gets stream 2
// plus the v1 stream (8 of 12 Mb/s used). Failing server 0 tears two
// streams; the surviving replica has room for exactly one.
func TestScriptedFailoverExactCounts(t *testing.T) {
	p, layout := resilienceScenario(t, 3600)
	tr := traceOf(
		workload.Request{Time: 1, Video: 0}, // rotation → server 0
		workload.Request{Time: 2, Video: 0}, // rotation → server 1
		workload.Request{Time: 3, Video: 0}, // rotation → server 0
		workload.Request{Time: 4, Video: 1}, // → server 1
	)
	fail := []avail.FailureEvent{{At: 100, Server: 0}}

	off, err := Run(Config{Problem: p, Layout: layout, Trace: tr, FailAt: fail,
		NewScheduler: firstAvailable})
	if err != nil {
		t.Fatal(err)
	}
	if off.Dropped != 2 || off.FailedOver != 0 {
		t.Fatalf("baseline dropped %d failed-over %d, want 2/0", off.Dropped, off.FailedOver)
	}

	on, err := Run(Config{Problem: p, Layout: layout, Trace: tr, FailAt: fail,
		NewScheduler: firstAvailable, Resilience: &resilience.Policy{Failover: true}})
	if err != nil {
		t.Fatal(err)
	}
	if on.FailedOver != 1 || on.Dropped != 1 {
		t.Fatalf("failed over %d dropped %d, want 1/1", on.FailedOver, on.Dropped)
	}
	if on.Requests != 4 || on.Accepted != 4 {
		t.Fatalf("requests %d accepted %d, want 4/4", on.Requests, on.Accepted)
	}
	if math.Abs(on.FailureRate-0.25) > 1e-12 {
		t.Fatalf("failure rate %g, want 1/4", on.FailureRate)
	}
}

// TestScriptedRetryExactCounts saturates the cluster, replays one more
// arrival, and checks both retry outcomes. The counts hold for any jitter
// draw: attempt times stay inside windows that force the same outcome.
func TestScriptedRetryExactCounts(t *testing.T) {
	p, layout := resilienceScenario(t, 100)
	reqs := make([]workload.Request, 0, 7)
	for i := 0; i < 6; i++ { // fill both servers: streams end at t=101..106
		reqs = append(reqs, workload.Request{Time: float64(i + 1), Video: 0})
	}
	reqs = append(reqs, workload.Request{Time: 10, Video: 0})
	tr := traceOf(reqs...)

	// Patient client: backoff walks past the stream departures and succeeds.
	patient := &resilience.Policy{Retry: true, RetryPatience: 1000}
	res, err := Run(Config{Problem: p, Layout: layout, Trace: tr, Seed: 1,
		NewScheduler: firstAvailable, Resilience: patient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried != 1 || res.RetrySucceeded != 1 || res.Reneged != 0 {
		t.Fatalf("retry counters %d/%d/%d, want 1/1/0",
			res.Retried, res.RetrySucceeded, res.Reneged)
	}
	if res.Requests != 7 || res.Accepted != 7 || res.Rejected != 0 {
		t.Fatalf("requests %d accepted %d rejected %d, want 7/7/0",
			res.Requests, res.Accepted, res.Rejected)
	}

	// Impatient client: the second delay always exceeds the patience
	// (first two delays sum to at least 11.25 s even at minimum jitter).
	impatient := &resilience.Policy{Retry: true, RetryPatience: 10}
	res, err = Run(Config{Problem: p, Layout: layout, Trace: tr, Seed: 1,
		NewScheduler: firstAvailable, Resilience: impatient})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried != 1 || res.RetrySucceeded != 0 || res.Reneged != 1 {
		t.Fatalf("retry counters %d/%d/%d, want 1/0/1",
			res.Retried, res.RetrySucceeded, res.Reneged)
	}
	if res.Requests != 7 || res.Accepted != 6 {
		t.Fatalf("requests %d accepted %d, want 7/6", res.Requests, res.Accepted)
	}
	if res.Rejected != 0 {
		t.Fatal("a renege was miscounted as an instant reject")
	}
	if math.Abs(res.FailureRate-1.0/7) > 1e-12 {
		t.Fatalf("failure rate %g, want 1/7", res.FailureRate)
	}
}

// TestScriptedDegradationExactCounts serves a saturated full-rate video from
// its half-rate copy and checks the delivered-quality accounting.
func TestScriptedDegradationExactCounts(t *testing.T) {
	p, l := resilienceScenario(t, 100)
	// Reverse the layout sense: v0 at 4 Mb/s on server 0 and 2 Mb/s on
	// server 1; v1 full-rate on server 0 only.
	l = core.NewLayout(2)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	l.Rates = [][]float64{{4 * core.Mbps, 2 * core.Mbps}, {4 * core.Mbps}}
	// Three v1 streams fill server 0; the v0 arrival finds its designated
	// full-rate copy saturated.
	tr := traceOf(
		workload.Request{Time: 1, Video: 1},
		workload.Request{Time: 2, Video: 1},
		workload.Request{Time: 3, Video: 1},
		workload.Request{Time: 10, Video: 0},
	)

	off, err := Run(Config{Problem: p, Layout: l, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if off.Rejected != 1 || off.Degraded != 0 {
		t.Fatalf("baseline rejected %d degraded %d, want 1/0", off.Rejected, off.Degraded)
	}

	on, err := Run(Config{Problem: p, Layout: l, Trace: tr,
		Resilience: &resilience.Policy{Degrade: true}})
	if err != nil {
		t.Fatal(err)
	}
	if on.Degraded != 1 || on.Rejected != 0 || on.Accepted != 4 {
		t.Fatalf("degraded %d rejected %d accepted %d, want 1/0/4",
			on.Degraded, on.Rejected, on.Accepted)
	}
	if math.Abs(on.DegradationRatio-0.5) > 1e-12 {
		t.Fatalf("degradation ratio %g, want 0.5", on.DegradationRatio)
	}
	// Session quality: (4+4+4+2)/4 = 3.5 Mb/s.
	if math.Abs(on.MeanSessionRateMbps-3.5) > 1e-9 {
		t.Fatalf("mean session rate %g, want 3.5", on.MeanSessionRateMbps)
	}
}

// TestRetryQueueDrains is the conservation property under stochastic load:
// every queued retry settles as a success or a renege, and every arrival
// settles exactly once.
func TestRetryQueueDrains(t *testing.T) {
	p, layout := buildScenario(t, 20, 1.2) // 2× saturation: retries abound
	f := &avail.FailureModel{MTBF: 30 * core.Minute, MTTR: 10 * core.Minute}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Config{Problem: p, Layout: layout, Seed: seed, Failures: f,
			Resilience: &resilience.Policy{Retry: true}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retried == 0 {
			t.Fatalf("seed %d: overload exercised no retries", seed)
		}
		if res.Retried != res.RetrySucceeded+res.Reneged {
			t.Fatalf("seed %d: retry queue leaked: %d queued, %d succeeded + %d reneged",
				seed, res.Retried, res.RetrySucceeded, res.Reneged)
		}
		if res.Accepted+res.Rejected+res.Reneged != res.Requests {
			t.Fatalf("seed %d: arrivals not conserved: %d+%d+%d != %d",
				seed, res.Accepted, res.Rejected, res.Reneged, res.Requests)
		}
	}
}

// TestWarmupDropAccounting is the warmup-asymmetry regression test: a stream
// admitted before the warmup boundary is unmeasured, so a post-warmup
// failure tearing it down must not count against FailureRate.
func TestWarmupDropAccounting(t *testing.T) {
	p, layout := resilienceScenario(t, 3600)
	tr := traceOf(
		workload.Request{Time: 10, Video: 0},  // pre-warmup → server 0
		workload.Request{Time: 150, Video: 1}, // post-warmup → server 1
	)
	fail := []avail.FailureEvent{{At: 200, Server: 0}}
	cfg := Config{Problem: p, Layout: layout, Trace: tr, FailAt: fail,
		NewScheduler: firstAvailable, Warmup: 100}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 1 || res.Accepted != 1 {
		t.Fatalf("measured %d requests, want only the post-warmup arrival", res.Requests)
	}
	if res.Dropped != 0 || res.FailureRate != 0 {
		t.Fatalf("unmeasured pre-warmup stream counted: dropped %d failure rate %g",
			res.Dropped, res.FailureRate)
	}
	// Control: without warmup the same failure is a measured drop.
	cfg.Warmup = 0
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.Dropped != 1 {
		t.Fatalf("control run: requests %d dropped %d, want 2/1", res.Requests, res.Dropped)
	}
	if math.Abs(res.FailureRate-0.5) > 1e-12 {
		t.Fatalf("control failure rate %g, want 0.5", res.FailureRate)
	}
}

// TestResilienceReducesFailures is the headline off-vs-on comparison: under
// the same stochastic failure process, enabling the recovery mechanisms must
// strictly reduce both dropped streams and the overall failure rate, while
// exercising every new counter.
func TestResilienceReducesFailures(t *testing.T) {
	p, layout := buildScenario(t, 8, 1.2)
	// buildScenario sizes storage to the layout exactly; repair needs spare
	// room on the destination to land a new copy.
	p = p.Clone()
	p.StoragePerServer *= 1.5
	f := &avail.FailureModel{MTBF: 30 * core.Minute, MTTR: 10 * core.Minute}
	const runs = 8

	offAgg, _, err := RunMany(Config{Problem: p, Layout: layout, Seed: 3, Failures: f}, runs)
	if err != nil {
		t.Fatal(err)
	}

	pol := resilience.All()
	// The scenario's links run near saturation, so a repair copy at the
	// default 200 Mb/s rarely finds headroom on the source link; a slower
	// copy stream always fits and still completes well within a downtime.
	pol.RepairRate = 50 * core.Mbps
	onAgg, onRuns, err := RunMany(Config{Problem: p, Layout: layout, Seed: 3, Failures: f,
		Resilience: &pol}, runs)
	if err != nil {
		t.Fatal(err)
	}

	if on, off := onAgg.Dropped.Mean(), offAgg.Dropped.Mean(); on >= off {
		t.Fatalf("resilience did not reduce drops: %.2f vs %.2f", on, off)
	}
	if on, off := onAgg.FailureRate.Mean(), offAgg.FailureRate.Mean(); on >= off {
		t.Fatalf("resilience did not reduce the failure rate: %.4f vs %.4f", on, off)
	}
	var failedOver, retried, succeeded, rereps int
	for _, r := range onRuns {
		failedOver += r.FailedOver
		retried += r.Retried
		succeeded += r.RetrySucceeded
		rereps += r.ReReplications
		if r.Retried != r.RetrySucceeded+r.Reneged {
			t.Fatal("retry queue leaked")
		}
	}
	if failedOver == 0 {
		t.Fatal("failover never exercised")
	}
	if retried == 0 || succeeded == 0 {
		t.Fatalf("retry path barely exercised: %d queued, %d succeeded", retried, succeeded)
	}
	if rereps == 0 {
		t.Fatal("re-replication repair never completed a copy")
	}
}
