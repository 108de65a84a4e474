package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/metrics"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/resilience"
	"vodcluster/internal/workload"
)

// paperPoint is the paper's default operating point as vodcluster.Pipeline
// builds it (config.Paper: M=100, N=8, degree 1.2, Zipf replication +
// smallest-load-first placement, λ = 40/min) — the run the benchmark's
// sim.run_s and sim.events time.
func paperPoint(t testing.TB) Config {
	t.Helper()
	s := config.Paper()
	p, err := s.Problem()
	if err != nil {
		t.Fatal(err)
	}
	budget, err := p.TargetTotalReplicas(s.Degree)
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := replicate.ZipfInterval{}.Replicate(p, budget)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Problem: p, Layout: layout, Seed: 1}
}

// mixedScenario is a cluster whose titles are half 45 and half 90 minutes
// long, every title on two servers, offered more than it can carry. With
// two session lengths a departure is often earlier than the last one
// scheduled, so the engine's heap carries real traffic — under equal lengths
// it would hold the next arrival and little else.
func mixedScenario(t testing.TB) (*core.Problem, *core.Layout) {
	t.Helper()
	const m, n = 40, 4
	c, err := core.NewCatalog(m, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for v := range c {
		if v%2 == 1 {
			c[v].Duration = 45 * core.Minute
		}
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         n,
		StoragePerServer:   float64(m) * c[0].SizeBytes(),
		BandwidthPerServer: 0.4 * core.Gbps, // 100 streams a server
		ArrivalRate:        8 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := core.NewLayout(m)
	for v := 0; v < m; v++ {
		for _, s := range []int{v % n, (v + 1) % n} {
			if err := layout.Place(v, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p, layout
}

// lifecycleLog records every hook call and decision of a run as text, so
// two runs can be compared event for event.
type lifecycleLog struct {
	lines []string
}

func (l *lifecycleLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *lifecycleLog) OnArrival(now float64, v int)        { l.add("%v arrival %d", now, v) }
func (l *lifecycleLog) OnAdmit(now float64, s *Session)     { l.add("%v admit %+v", now, *s) }
func (l *lifecycleLog) OnReject(now float64, v int, m bool) { l.add("%v reject %d %t", now, v, m) }
func (l *lifecycleLog) OnRetryQueued(now float64, v int, m bool) {
	l.add("%v retry-queued %d %t", now, v, m)
}
func (l *lifecycleLog) OnRetryOutcome(now float64, v int, ok, m bool) {
	l.add("%v retry-outcome %d %t %t", now, v, ok, m)
}
func (l *lifecycleLog) OnEnd(now float64, s *Session)  { l.add("%v end %+v", now, *s) }
func (l *lifecycleLog) OnTear(now float64, s *Session) { l.add("%v tear %+v", now, *s) }
func (l *lifecycleLog) OnSalvage(now float64, old, s *Session) {
	l.add("%v salvage %+v -> %+v", now, *old, *s)
}
func (l *lifecycleLog) OnSample(now float64, st *cluster.State) {
	l.add("%v sample %d", now, st.TotalActive())
}
func (l *lifecycleLog) OnDone(now float64, _ *metrics.Collector) { l.add("%v done", now) }
func (l *lifecycleLog) OnDecision(d Decision)                    { l.add("decision %+v", d) }

// runFresh is Run without the buffer pool: the run grows its own storage
// from nothing, as every run did before buffers were recycled.
func runFresh(t testing.TB, cfg Config) metrics.Result {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runShadowed is runFresh with every event checked against the old engine's
// queue before it fires (see shadow). It also returns the deepest the
// engine's heap got.
func runShadowed(t testing.TB, cfg Config) (res metrics.Result, maxHeap int) {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.schedule(cfg); err != nil {
		t.Fatal(err)
	}
	var sh shadow
	events := 0
	for sh.step(t, r.eng) {
		events++
		if n := len(r.eng.heap); n > maxHeap {
			maxHeap = n
		}
	}
	r.fireDone(r.eng.Now())
	res = r.col.Result()
	res.Events = events
	return res, maxHeap
}

// TestRunAllocsPerEvent pins the simulator's steady state at the paper's
// default point: once one run has grown the pooled buffers, a run costs at
// most a tenth of an allocation per event — all of it set-up (cluster.New's
// holder lists, the RNG streams, the collector), none of it in the event
// loop. It is a count, not a timing, so it holds on a shared runner.
func TestRunAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := paperPoint(t)
	res, err := Run(cfg) // grows the buffers the measured runs recycle
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's traced pass reports this run as sim.events.
	if res.Events != 7187 {
		t.Fatalf("paper point, seed 1: %d events, want 7187", res.Events)
	}
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := perRun / float64(res.Events); perEvent > 0.1 {
		t.Fatalf("%.0f allocations a run = %.3f per event, want ≤ 0.1", perRun, perEvent)
	}
}

// TestRecycledRunEqualsFresh: what a run left in the pooled buffers must not
// reach the next one. The same Config, run on recycled buffers between runs
// of another size and a run that fails half way through set-up, gives the
// result a run on fresh buffers gives — from one goroutine and from eight
// sharing the pool.
func TestRecycledRunEqualsFresh(t *testing.T) {
	p, layout := buildScenario(t, 9, 1.2)
	f := &avail.FailureModel{MTBF: 30 * core.Minute, MTTR: 10 * core.Minute}
	cfg := Config{Problem: p, Layout: layout, Seed: 5, Failures: f,
		Resilience: &resilience.Policy{Failover: true, Retry: true}}
	want := runFresh(t, cfg)
	if want.Dropped+want.FailedOver == 0 || want.Retried == 0 {
		t.Fatalf("scenario exercises neither failures nor retries: %+v", want)
	}

	// Another M, N and λ: more servers, more titles, three times the events.
	other := paperPoint(t)
	// Set-up that fails after it has queued events: the second request names
	// a video outside the catalog.
	bad := cfg
	bad.Trace = &workload.Trace{Requests: []workload.Request{{Time: 1, Video: 0}, {Time: 2, Video: p.M()}}}

	round := func(fail func(format string, args ...any)) {
		for i := 0; i < 3; i++ {
			got, err := Run(cfg)
			if err != nil {
				fail("run %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				fail("run %d on recycled buffers:\n got %+v\nwant %+v", i, got, want)
			}
			if _, err := Run(other); err != nil {
				fail("other-size run: %v", err)
			}
			if _, err := Run(bad); err == nil {
				fail("trace with a foreign video accepted")
			}
		}
	}
	round(t.Fatalf)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			round(t.Errorf)
		}()
	}
	wg.Wait()
}

// TestOnlySmallBuffersArePooled: the figures' runs hand their buffers on,
// a long trace replay — whose lane alone holds every request up front —
// leaves its to the collector (see maxPooled).
func TestOnlySmallBuffersArePooled(t *testing.T) {
	after := func(cfg Config) *runBuffers {
		r, err := newRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bufs := new(runBuffers)
		r.swapBuffers(bufs)
		if _, err := r.execute(cfg); err != nil {
			t.Fatal(err)
		}
		r.swapBuffers(bufs)
		return bufs
	}
	paper := paperPoint(t)
	if b := after(paper); !b.poolable() {
		t.Fatalf("the paper's default run is not pooled: lane %d, tables %d and %d, %d slab chunks",
			len(b.eng.lane), b.streams.Cap(), b.sessions.Cap(), len(b.slab.chunks))
	}
	long := paper
	long.Trace = &workload.Trace{}
	for i := 0; i <= maxPooled; i++ {
		long.Trace.Requests = append(long.Trace.Requests, workload.Request{Time: float64(i), Video: i % paper.Problem.M()})
	}
	if after(long).poolable() {
		t.Fatalf("a replay of %d requests is pooled", len(long.Trace.Requests))
	}
}

// TestTraceArrivalPrecedesDepartureAtSameInstant pins the tie contract trace
// replay depends on. Trace arrivals are all scheduled before the run starts,
// so an arrival at instant t holds an earlier sequence number than the
// departure of any session that ends at t, and fires first: it sees the
// server still full. Scheduling trace arrivals lazily would flip both
// verdicts below.
func TestTraceArrivalPrecedesDepartureAtSameInstant(t *testing.T) {
	c, err := core.NewCatalog(2, 0.75, 4*core.Mbps, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         1,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 8 * core.Mbps, // two streams
		ArrivalRate:        1,
		PeakPeriod:         60,
	}
	layout := core.NewLayout(2)
	for v := 0; v < 2; v++ {
		if err := layout.Place(v, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr := &workload.Trace{Requests: []workload.Request{
		{Time: 0, Video: 0}, {Time: 0, Video: 1}, // fill the server until t = 10
		{Time: 10, Video: 0}, {Time: 10, Video: 1}, // the instant both sessions end
		{Time: 11, Video: 0},
	}}
	journal := &DecisionJournal{}
	cfg := Config{Problem: p, Layout: layout, Trace: tr, Hooks: []Hook{journal}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []Outcome
	for _, d := range journal.Decisions {
		got = append(got, d.Outcome)
	}
	if want := []Outcome{Admitted, Admitted, Rejected, Rejected, Admitted}; !reflect.DeepEqual(got, want) {
		t.Fatalf("outcomes %v, want %v", got, want)
	}

	// And the old engine's queue fires the same events in the same order.
	shadowJournal := &DecisionJournal{}
	cfg.Hooks = []Hook{shadowJournal}
	shadowed, _ := runShadowed(t, cfg)
	if !reflect.DeepEqual(shadowJournal.Decisions, journal.Decisions) || !reflect.DeepEqual(shadowed, res) {
		t.Fatalf("oracle-checked replay differs:\n got %+v\nwant %+v", shadowJournal.Decisions, journal.Decisions)
	}
}

// TestMixedDurationsMatchOracleEventForEvent runs the mixed-length catalog
// with stochastic failures, retry and failover — every kind of event the
// simulator schedules, ops and closures, on both sides of the lane split —
// checking each event against the old engine's queue before it fires, and
// then requires the pooled Run to produce the same hook calls and decisions
// line for line.
func TestMixedDurationsMatchOracleEventForEvent(t *testing.T) {
	p, layout := mixedScenario(t)
	f := &avail.FailureModel{MTBF: 30 * core.Minute, MTTR: 10 * core.Minute}
	newCfg := func(log *lifecycleLog) Config {
		return Config{Problem: p, Layout: layout, Seed: 9, Failures: f,
			Resilience: &resilience.Policy{Failover: true, Retry: true},
			Hooks:      []Hook{log}}
	}
	var shadowLog, runLog lifecycleLog
	want, maxHeap := runShadowed(t, newCfg(&shadowLog))
	if want.Dropped == 0 || want.FailedOver == 0 || want.RetrySucceeded == 0 || want.Reneged == 0 {
		t.Fatalf("scenario misses a mechanism: %+v", want)
	}
	if maxHeap < 50 {
		t.Fatalf("the heap never held more than %d events: the lane took everything", maxHeap)
	}
	got, err := Run(newCfg(&runLog))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results differ:\n got %+v\nwant %+v", got, want)
	}
	if len(runLog.lines) != len(shadowLog.lines) {
		t.Fatalf("%d lifecycle events, oracle-checked run %d", len(runLog.lines), len(shadowLog.lines))
	}
	for i := range runLog.lines {
		if runLog.lines[i] != shadowLog.lines[i] {
			t.Fatalf("lifecycle event %d:\n got %s\nwant %s", i, runLog.lines[i], shadowLog.lines[i])
		}
	}

	// The paper's equal-length case, for contrast and for coverage of the
	// lane: same check, and the heap stays at the arrival plus the tickers.
	ep, elayout := buildScenario(t, 9, 1.2)
	_, maxHeap = runShadowed(t, Config{Problem: ep, Layout: elayout, Seed: 5})
	if maxHeap > 4 {
		t.Fatalf("equal-length sessions put %d events on the heap; departures should all take the lane", maxHeap)
	}
}
