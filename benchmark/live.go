package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"vodcluster"
	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/resilience"
	"vodcluster/internal/serve"
	"vodcluster/internal/sim"
	"vodcluster/internal/stats"
	"vodcluster/internal/zipf"
)

// paperTheta is the Zipf skew of the paper's catalog, which the daemon
// serves and the generated requests follow.
var paperTheta = config.Paper().Theta

const (
	// genConns is the number of connections, one goroutine each, that
	// generate load. The generator shares the machine with the daemon, so it
	// never uses more than min(nproc, 2).
	genConns = 2
	// occupancy is the share of the cluster's stream capacity the closed
	// loops keep asked for: every session lasts until its connection has made
	// as many further attempts as its ring holds, and the rings together hold
	// occupancy × capacity attempts, so about 5 % of decisions are refusals.
	occupancy = 1.05
	batchSize = 256
	// sloLimit is the latency limit of a correct decision, from its due time.
	// It is far above the generator's own lateness on this hardware; see
	// README.md, "Not measured".
	sloLimit = 10 * time.Millisecond

	// closedCompress makes a session of the closed loops last 1.5 s of wall
	// time unless closed, thirty times longer than a connection takes to come
	// round its ring and close it, so nothing expires under the generator. But
	// the expiry entry a close leaves behind in the shard's heap is dropped
	// after 1.5 s, so the daemon's memory and its heap work reach a steady
	// state early in a run instead of growing with the decisions made.
	closedCompress = 3600

	singleRepSeconds = 0.25
	batchRepSeconds  = 0.25
	singleWarmSteps  = 10000 // per connection
	batchWarmSteps   = 150

	churnRate       = 10000.0 // POST /open per second over both connections
	churnCompress   = 15000.0 // virtual seconds per wall second: 40 requests per virtual minute
	churnRepSeconds = 2.4
	churnWarm       = 0.3 // seconds of the schedule run as warm-up
	churnBackend    = 3   // the backend the script fails and recovers
	churnReplicas   = 16  // replicas landed and evicted again per repetition
)

// daemon is the program under test: the admission daemon in this process
// behind a real loopback TCP listener, in the configuration ROADMAP.md is
// converging on — one shard per server, least-loaded, one ingress listener.
type daemon struct {
	srv    *serve.Server
	ing    *serve.Ingress
	addr   string
	p      *core.Problem
	layout *core.Layout
}

func startDaemon(k *track, compress float64) (*daemon, error) {
	id := k.begin("vodcluster.pipeline")
	p, layout, _, err := vodcluster.Pipeline(config.Paper())
	k.end(id)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(p, layout, serve.Config{Shards: p.N(), Policy: "least-loaded", Compress: compress})
	if err != nil {
		return nil, err
	}
	ing, err := serve.NewIngress(srv, serve.IngressConfig{Listeners: 1})
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	addr, err := ing.Start("127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &daemon{srv: srv, ing: ing, addr: addr.String(), p: p, layout: layout}, nil
}

func (d *daemon) stop() {
	d.ing.Close()
	d.srv.Shutdown()
}

// streamCapacity is how many streams the cluster's links carry at once.
func (d *daemon) streamCapacity() int {
	rate, _ := d.p.Catalog.FixedBitRate()
	return int(d.p.TotalBandwidth() / rate)
}

// checkSettled is the leak check: after every session ended, exactly-once
// settlement leaves no session, no reserved bandwidth and no backbone use,
// and the generator's traffic never left the ingress fast path.
func (d *daemon) checkSettled(t *tally) {
	t.check(d.srv.Active() == 0, "daemon still holds %d sessions after everything was closed", d.srv.Active())
	c := d.srv.Cluster()
	for s := 0; s < c.Servers(); s++ {
		t.check(c.Used(s) == 0, "server %d still has %d bit/s reserved with no session open", s, c.Used(s))
	}
	t.check(c.BackboneUsed() == 0, "backbone still has %d bit/s reserved", c.BackboneUsed())
	t.check(d.ing.Stats().Fallbacks() == 0, "%d generator requests fell off the ingress fast path", d.ing.Stats().Fallbacks())
}

// counter reads one sample of the daemon's own /metrics exposition.
func (d *daemon) counter(name string) float64 {
	var buf bytes.Buffer
	d.srv.Metrics().Render(&buf, d.srv.Cluster(), d.srv.Active(), d.srv.PolicyName())
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(rest, 64) // a malformed sample reads 0 and fails the check that uses it
			return v
		}
	}
	return 0
}

// videoSequence draws n Zipf(θ) videos for one connection from the seed.
func videoSequence(seed int64, stream int64, videos, n int, theta float64) []int {
	sampler := zipf.NewSampler(zipf.MustNew(videos, theta))
	rng := stats.NewRNG(seed).Derive(stream)
	vids := make([]int, n)
	for i := range vids {
		vids[i] = sampler.Sample(rng)
	}
	return vids
}

// --- serve_single and serve_batch: the closed loops ---

// closedConn is one connection of a closed loop and its ring of attempts.
type closedConn struct {
	c    *conn
	k    *track
	vids []int // the connection's seeded video sequence, cycled
	next int
	// ring holds the connection's last len(ring) attempts: the session id of
	// an accepted one, -1 for a refusal or a slot not yet used. The slot about
	// to be reused is closed in the same write as the next open.
	ring []int64
	pos  int

	batch     int // videos per round trip; 1 means POST /open
	scratch   []byte
	decisions []decision

	sent, accepted, rejected int64
	rtt                      []float64 // µs, this repetition
}

// step makes one round trip: the closes of the slots about to be reused and
// the next open or batch in one write, then every reply, validated.
func (cc *closedConn) step(traced bool) error {
	var k *track
	if traced {
		k = cc.k
	}
	closes := 0
	for i := 0; i < cc.batch; i++ {
		if id := cc.ring[(cc.pos+i)%len(cc.ring)]; id >= 0 {
			cc.c.queueClose(id)
			closes++
		}
	}
	if cc.next+cc.batch > len(cc.vids) {
		cc.next = 0
	}
	vids := cc.vids[cc.next : cc.next+cc.batch]
	cc.next += cc.batch
	if cc.batch == 1 {
		cc.c.queueOpen(vids[0])
	} else {
		cc.scratch = cc.c.queueBatch(vids, cc.scratch)
	}

	start := time.Now()
	span := k.begin("loadgen.round_trip")
	if err := cc.c.flush(); err != nil {
		return err
	}
	for i := 0; i < closes; i++ {
		if err := cc.c.readClose(); err != nil {
			return err
		}
	}
	cc.decisions = cc.decisions[:0]
	if cc.batch == 1 {
		d, err := cc.c.readOpen(vids[0])
		if err != nil {
			return err
		}
		cc.decisions = append(cc.decisions, d)
	} else {
		var err error
		if cc.decisions, err = cc.c.readBatch(vids, cc.decisions); err != nil {
			return err
		}
	}
	k.end(span)
	cc.rtt = append(cc.rtt, float64(time.Since(start))/1e3)

	for _, d := range cc.decisions {
		id := int64(-1)
		cc.sent++
		if d.accepted {
			id = d.id
			cc.accepted++
		} else {
			cc.rejected++
		}
		cc.ring[cc.pos] = id
		cc.pos = (cc.pos + 1) % len(cc.ring)
	}
	return nil
}

// closeAll closes every session the ring still holds, 256 to a write.
func (cc *closedConn) closeAll() error {
	for lo := 0; lo < len(cc.ring); lo += batchSize {
		n := 0
		for i := lo; i < min(lo+batchSize, len(cc.ring)); i++ {
			if cc.ring[i] >= 0 {
				cc.c.queueClose(cc.ring[i])
				cc.ring[i] = -1
				n++
			}
		}
		if n == 0 {
			continue
		}
		if err := cc.c.flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := cc.c.readClose(); err != nil {
				return err
			}
		}
	}
	return nil
}

type closedLoop struct {
	e          *env
	name       string
	d          *daemon
	conns      []*closedConn
	repSeconds float64

	p50, p99, slo sample        // per repetition
	connTime      time.Duration // time the connections spent in repetitions
	decided       int64         // decisions settled in repetitions
}

// both runs fn on every connection at once and returns the first error.
func (w *closedLoop) both(fn func(cc *closedConn) error) error {
	errs := make([]error, len(w.conns))
	var wg sync.WaitGroup
	for i, cc := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(cc)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func setupServeSingle(e *env) (instance, error) {
	return setupClosed(e, "serve_single", 1, singleRepSeconds, singleWarmSteps)
}

func setupServeBatch(e *env) (instance, error) {
	return setupClosed(e, "serve_batch", batchSize, batchRepSeconds, batchWarmSteps)
}

// setupClosed builds the video sequences, starts the daemon, dials, fills
// the rings to steady occupancy and runs the fixed warm-up.
func setupClosed(e *env, name string, batch int, repSeconds float64, warmSteps int) (instance, error) {
	d, err := startDaemon(e.main, closedCompress)
	if err != nil {
		return nil, err
	}
	w := &closedLoop{e: e, name: name, d: d, repSeconds: repSeconds}
	ringLen := int(math.Round(occupancy * float64(d.streamCapacity()) / genConns))
	for i := 0; i < genConns; i++ {
		id := e.main.begin("workload.generate")
		vids := videoSequence(e.seed, int64(i), d.p.M(), 1<<19, paperTheta)
		e.main.end(id)
		c, err := dial(d.addr, d.p.N())
		if err != nil {
			w.close()
			return nil, err
		}
		ring := make([]int64, ringLen)
		for j := range ring {
			ring[j] = -1
		}
		w.conns = append(w.conns, &closedConn{c: c, k: e.tr.newTrack(), vids: vids, ring: ring, batch: batch})
	}
	fill := (ringLen + batch - 1) / batch
	err = w.both(func(cc *closedConn) error {
		for i := 0; i < fill+warmSteps; i++ {
			if err := cc.step(false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("fill and warm-up: %w", err)
	}
	return w, nil
}

func (w *closedLoop) rep(traced bool) (repResult, error) {
	var before int64
	for _, cc := range w.conns {
		before += cc.sent
		cc.rtt = cc.rtt[:0]
	}
	start := time.Now()
	deadline := start.Add(time.Duration(w.repSeconds * float64(time.Second)))
	err := w.both(func(cc *closedConn) error {
		for time.Now().Before(deadline) {
			if err := cc.step(traced); err != nil {
				return err
			}
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		w.e.tally.fail("%s: %v", w.name, err)
		return repResult{}, err
	}
	var after int64
	var rtt []float64
	for _, cc := range w.conns {
		after += cc.sent
		rtt = append(rtt, cc.rtt...)
	}
	within := 0
	for _, us := range rtt {
		if us <= float64(sloLimit)/1e3 {
			within++
		}
	}
	w.p50 = append(w.p50, quantile(rtt, 0.5))
	w.p99 = append(w.p99, quantile(rtt, 0.99))
	w.slo = append(w.slo, float64(within)/float64(len(rtt)))
	w.connTime += wall * genConns
	w.decided += after - before
	return repResult{ops: float64(after - before), wall: wall}, nil
}

func (w *closedLoop) finish(out map[string]float64) error {
	t := w.e.tally
	if err := w.both((*closedConn).closeAll); err != nil {
		t.fail("%s: closing the open sessions: %v", w.name, err)
		return err
	}
	var sent, accepted, rejected int64
	for _, cc := range w.conns {
		sent, accepted, rejected = sent+cc.sent, accepted+cc.accepted, rejected+cc.rejected
	}
	t.attempted.Add(sent)
	t.check(sent == accepted+rejected, "%s: sent %d, but %d accepted + %d rejected", w.name, sent, accepted, rejected)
	m := w.d.srv.Metrics()
	t.check(m.Requests() == sent && m.Accepted() == accepted,
		"%s: generator saw %d decisions, %d accepted; the daemon settled %d, %d accepted", w.name, sent, accepted, m.Requests(), m.Accepted())
	w.d.checkSettled(t)

	out["loadgen.rtt_p50_us"] = w.p50.median()
	out["loadgen.rtt_p99_us"] = w.p99.median()
	out["loadgen.slo_ok_ratio"] = w.slo.median()
	out["loadgen.achieved_rate_ratio"] = 1 // a closed loop offers what it achieves
	out["workload.requests"] = float64(len(w.conns) * len(w.conns[0].vids))
	out["serve.reject_ratio"] = ratio(float64(rejected), float64(sent))
	out["serve.snapshot_conflicts"] = ratio(float64(m.SnapshotConflicts()), float64(sent))
	out["serve.ingress.fallback_share"] = ratio(float64(w.d.ing.Stats().Fallbacks()), float64(sent))
	if w.conns[0].batch > 1 {
		out["serve.ingress.batch_ns_per_decision"] = ratio(float64(w.connTime), float64(w.decided))
	}
	return nil
}

func (w *closedLoop) close() {
	for _, cc := range w.conns {
		cc.c.close()
	}
	w.d.stop()
}

// --- serve_churn: the open loop ---

type churn struct {
	e     *env
	d     *daemon
	conns []*conn
	kk    []*track
	reps  int

	sent, accepted, rejected int64
	lateness                 []float64 // µs, every request of every repetition
	// Per repetition: latency p50 and p99 from due time, share within
	// sloLimit, achieved rate, the live rejection ratio after warm-up and its
	// distance from sim.Run's.
	p50, p99, slo, achieved, rejection, simGap sample
	failMS                                     sample
	failedOver, dropped, pinned                int
	expired, expirySeconds                     float64
}

// shot is one request of an open-loop repetition, as the generator saw it.
type shot struct {
	due, sent, done time.Duration // from the repetition's start
	accepted        bool
}

// setupServeChurn starts the daemon at the compression that makes 10 000
// requests a second the paper's 40 a minute and a 90-minute video 0.36 s, so
// every session ends by natural expiry, dials, and runs a short stretch of
// the schedule as warm-up.
func setupServeChurn(e *env) (instance, error) {
	d, err := startDaemon(e.main, churnCompress)
	if err != nil {
		return nil, err
	}
	w := &churn{e: e, d: d}
	for i := 0; i < genConns; i++ {
		c, err := dial(d.addr, d.p.N())
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, c)
		w.kk = append(w.kk, e.tr.newTrack())
	}
	sched, _, err := poissonSchedule(e.seed-1, churnRate, churnWarm, churnCompress, d.p.M(), paperTheta)
	if err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.fire(sched, time.Now(), false); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	w.sent, w.accepted, w.rejected = 0, 0, 0
	return w, nil
}

// fire sends the schedule open loop: request i goes out on connection
// i mod genConns at its due time or as soon after as the connection is free,
// whatever earlier replies did, and latency runs from the due time.
func (w *churn) fire(sched []due, start time.Time, traced bool) ([]shot, error) {
	shots := make([]shot, len(sched))
	errs := make([]error, genConns)
	var wg sync.WaitGroup
	for ci := 0; ci < genConns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := w.conns[ci]
			var k *track
			if traced {
				k = w.kk[ci]
			}
			for i := ci; i < len(sched); i += genConns {
				if wait := time.Until(start.Add(sched[i].at)); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				span := k.begin("loadgen.round_trip")
				c.queueOpen(sched[i].video)
				err := c.flush()
				var dec decision
				if err == nil {
					dec, err = c.readOpen(sched[i].video)
				}
				k.end(span)
				if err != nil {
					errs[ci] = fmt.Errorf("request %d: %w", i, err)
					return
				}
				shots[i] = shot{due: sched[i].at, sent: sent, done: time.Since(start), accepted: dec.accepted}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, s := range shots {
		w.sent++
		if s.accepted {
			w.accepted++
		} else {
			w.rejected++
		}
	}
	return shots, nil
}

// script is the write side of one repetition, beside the admissions, at
// fixed shares of its length: land replicas of the hottest videos backend
// churnBackend does not hold on that backend, try to evict them while
// sessions stream from them (the daemon must refuse: ErrReplicaPinned), fail
// the backend, evict them while it is down, and recover it. It returns when
// the failure began and how long it lasted, in seconds from the start.
func (w *churn) script(k *track, start time.Time, dur time.Duration) (failAt, downFor float64) {
	t := w.e.tally
	at := func(share float64) { time.Sleep(time.Until(start.Add(time.Duration(share * float64(dur))))) }
	srv := w.d.srv

	var landed []int
	for v := 0; len(landed) < churnReplicas && v < w.d.p.M(); v++ {
		if slices.Contains(srv.Cluster().Holders(v), churnBackend) {
			continue
		}
		at(0.05 + 0.15*float64(len(landed))/churnReplicas)
		id := k.begin("serve.land_replica")
		err := srv.LandReplica(v, churnBackend)
		k.end(id)
		t.check(err == nil, "serve_churn: LandReplica(%d, %d): %v", v, churnBackend, err)
		landed = append(landed, v)
	}
	evict := func(pinnedOK bool) {
		kept := landed[:0]
		for _, v := range landed {
			id := k.begin("serve.evict_replica")
			err := srv.EvictReplica(v, churnBackend)
			k.end(id)
			if pinnedOK && errors.Is(err, serve.ErrReplicaPinned) {
				w.pinned++
				kept = append(kept, v)
				continue
			}
			t.check(err == nil, "serve_churn: EvictReplica(%d, %d): %v", v, churnBackend, err)
		}
		landed = kept
	}
	at(0.28)
	evict(true)

	at(0.3)
	failAt = time.Since(start).Seconds()
	id := k.begin("serve.fail_backend")
	began := time.Now()
	over, dropped, err := srv.FailBackend(churnBackend)
	w.failMS = append(w.failMS, float64(time.Since(began))/1e6)
	k.end(id)
	t.check(err == nil, "serve_churn: FailBackend(%d): %v", churnBackend, err)
	w.failedOver += over
	w.dropped += dropped

	at(0.4)
	evict(false)

	at(0.55)
	id = k.begin("serve.recover_backend")
	err = srv.RecoverBackend(churnBackend)
	k.end(id)
	downFor = time.Since(start).Seconds() - failAt
	t.check(err == nil, "serve_churn: RecoverBackend(%d): %v", churnBackend, err)
	return failAt, downFor
}

func (w *churn) rep(traced bool) (repResult, error) {
	t := w.e.tally
	var k *track
	if traced {
		k = w.e.main
	}
	w.reps++
	id := k.begin("workload.generate")
	sched, tr, err := poissonSchedule(w.e.seed+int64(w.reps)*pointSeedStride, churnRate, churnRepSeconds, churnCompress, w.d.p.M(), paperTheta)
	k.end(id)
	if err != nil {
		return repResult{}, err
	}

	expiredBefore := w.d.counter(`vod_sessions_ended_total{cause="completed"}`)
	dur := time.Duration(churnRepSeconds * float64(time.Second))
	start := time.Now().Add(2 * time.Millisecond)
	var failAt, downFor float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		failAt, downFor = w.script(k, start, dur)
	}()
	shots, err := w.fire(sched, start, traced)
	<-done
	wall := time.Since(start)
	if err != nil {
		t.fail("serve_churn: %v", err)
		return repResult{}, err
	}
	w.expired += w.d.counter(`vod_sessions_ended_total{cause="completed"}`) - expiredBefore
	w.expirySeconds += wall.Seconds()

	st := summarize(shots)
	w.lateness = append(w.lateness, st.lateness...)
	warm := time.Duration(w.d.p.Catalog[0].Duration / churnCompress * float64(time.Second))
	liveReq, liveRej := 0, 0
	for _, s := range shots {
		if s.due >= warm {
			liveReq++
			if !s.accepted {
				liveRej++
			}
		}
	}
	invalid := ""
	if lateP99 := quantile(st.lateness, 0.99); lateP99 > maxLatenessP99US || st.achieved < minAchieved {
		invalid = fmt.Sprintf("generator lateness p99 %.0f µs (limit %d), achieved %.3f of the offered rate (limit %.2f)",
			lateP99, maxLatenessP99US, st.achieved, minAchieved)
	} else {
		w.p50 = append(w.p50, quantile(st.latency, 0.5))
		w.p99 = append(w.p99, quantile(st.latency, 0.99))
		w.slo = append(w.slo, float64(st.ok)/float64(len(shots)))
		w.achieved = append(w.achieved, st.achieved)
	}

	// The same trace through the simulator with the same scripted failure;
	// both sides skip the first video length, while the cluster fills.
	id = k.begin("sim.run")
	res, err := sim.Run(sim.Config{
		Problem: w.d.p, Layout: w.d.layout,
		NewScheduler: func() cluster.Scheduler { return mostFreeUp{} },
		Trace:        tr, Duration: tr.Meta.Duration, Seed: w.e.seed,
		Warmup:     w.d.p.Catalog[0].Duration,
		FailAt:     []avail.FailureEvent{{At: failAt * churnCompress, Server: churnBackend, Down: downFor * churnCompress}},
		Resilience: &resilience.Policy{Failover: true},
	})
	k.end(id)
	if err != nil {
		return repResult{}, err
	}
	live := ratio(float64(liveRej), float64(liveReq))
	if invalid == "" {
		w.rejection = append(w.rejection, live)
		w.simGap = append(w.simGap, 100*math.Abs(live-res.RejectionRate))
	}
	fmt.Printf("repetition %d: %d requests, %d within %s; after warm-up %d of %d rejected, sim.Run %d of %d; backend %d down %.3f-%.3f s; lateness p99 %.0f µs\n",
		w.reps, len(shots), st.ok, sloLimit, liveRej, liveReq, res.Rejected, res.Requests, churnBackend, failAt, failAt+downFor, quantile(st.lateness, 0.99))
	return repResult{ops: float64(st.ok), wall: wall, invalid: invalid}, nil
}

// A repetition whose generator ran later or slower than this measured
// itself, not the daemon; it is reported invalid and left out, not counted
// as slow.
const (
	maxLatenessP99US = 5000
	minAchieved      = 0.98
)

// shotStats is what the requests of one open-loop repetition add up to.
type shotStats struct {
	ok       int       // replies within sloLimit of their due time
	latency  []float64 // µs from due time to validated reply, per request
	lateness []float64 // µs the generator itself sent late, per request
	achieved float64   // the schedule's length over the time sending it took
}

// summarize times every request from when it was due, so a stall also delays
// the requests queued behind it. Lateness is the generator's own share of
// that delay: how much later the request went out than a generator that
// never oversleeps would have sent it, given the replies' actual service
// times — at its due time, or when its connection's previous request would
// have been answered, whichever is later.
func summarize(shots []shot) shotStats {
	st := shotStats{latency: make([]float64, len(shots)), lateness: make([]float64, len(shots))}
	ideal := make([]time.Duration, len(shots)) // when the punctual generator sends request i
	for i, s := range shots {
		st.latency[i] = float64(s.done-s.due) / 1e3
		if s.done-s.due <= sloLimit {
			st.ok++
		}
		ideal[i] = s.due
		if prev := i - genConns; prev >= 0 {
			ideal[i] = max(s.due, ideal[prev]+shots[prev].done-shots[prev].sent)
		}
		st.lateness[i] = float64(s.sent-ideal[i]) / 1e3
	}
	last := shots[len(shots)-1]
	st.achieved = last.due.Seconds() / last.sent.Seconds()
	return st
}

// mostFreeUp states the daemon's least-loaded rule for the simulator: among
// the holders that are up and have room, the one with the most free outgoing
// bandwidth. The registry's cluster.LeastLoaded ranks a down holder first —
// its link is empty — and then rejects, which the daemon never does; with it
// the two sides are about 3 pp apart under this script (README.md).
type mostFreeUp struct{}

func (mostFreeUp) Name() string { return "most-free-up" }

func (mostFreeUp) Schedule(st *cluster.State, v int) cluster.Decision {
	best, bestFree := -1, 0.0
	for _, s := range st.Holders(v) {
		if free := st.FreeBandwidth(s); st.CanServe(s, v) && free > bestFree {
			best, bestFree = s, free
		}
	}
	if best < 0 {
		return cluster.Reject
	}
	return cluster.Direct(best)
}

func (w *churn) finish(out map[string]float64) error {
	t := w.e.tally
	// Every session ends by natural expiry, one video length after its
	// admission; wait that long and a margin for the expiry heaps to fire.
	wait := time.Duration(w.d.p.Catalog[0].Duration/churnCompress*float64(time.Second)) + 200*time.Millisecond
	for deadline := time.Now().Add(wait + 2*time.Second); w.d.srv.Active() > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	t.attempted.Add(w.sent)
	t.check(w.sent == w.accepted+w.rejected, "serve_churn: sent %d, but %d accepted + %d rejected", w.sent, w.accepted, w.rejected)
	w.d.checkSettled(t)
	// The median over repetitions: one repetition the platform stalled does
	// not decide the cross-check.
	gap := w.simGap.median()
	t.check(gap <= 2, "serve_churn: live rejection ratio is %.2f pp from sim.Run's on the same trace and failure (limit 2)", gap)

	out["loadgen.lateness_p50_us"] = quantile(w.lateness, 0.5)
	out["loadgen.lateness_p99_us"] = quantile(w.lateness, 0.99)
	out["loadgen.lateness_max_us"] = quantile(w.lateness, 1)
	out["loadgen.rtt_p50_us"] = w.p50.median()
	out["loadgen.rtt_p99_us"] = w.p99.median()
	out["loadgen.slo_ok_ratio"] = w.slo.median()
	out["loadgen.achieved_rate_ratio"] = w.achieved.median()
	out["serve.failover.fail_backend_ms"] = w.failMS.median()
	out["serve.failover.failed_over"] = ratio(float64(w.failedOver), float64(w.reps))
	out["serve.failover.dropped"] = ratio(float64(w.dropped), float64(w.reps))
	out["serve.rebalance.evict_pinned_retries"] = ratio(float64(w.pinned), float64(w.reps))
	out["serve.expiry.settled_per_s"] = ratio(w.expired, w.expirySeconds)
	out["serve.reject_ratio"] = w.rejection.median()
	out["serve.sim_gap_pp"] = gap
	out["serve.snapshot_conflicts"] = ratio(float64(w.d.srv.Metrics().SnapshotConflicts()), float64(w.sent))
	out["serve.ingress.fallback_share"] = ratio(float64(w.d.ing.Stats().Fallbacks()), float64(w.sent))
	out["workload.requests"] = ratio(float64(w.sent), float64(w.reps))
	return nil
}

func (w *churn) close() {
	for _, c := range w.conns {
		c.close()
	}
	w.d.stop()
}
