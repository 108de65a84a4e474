package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/rebalance"
	"vodcluster/internal/serve"
)

// spanMetrics derives the per-layer metrics that are the duration of one call
// into a layer from the spans around those calls. A metric a measurement in
// isolation already set keeps that value.
func spanMetrics(stats map[string]*spanStat, out map[string]float64) {
	set := func(metric, span string, scale float64) {
		if _, done := out[metric]; !done {
			out[metric] = medianSeconds(stats, span) * scale
		}
	}
	set("workload.generate_s", "workload.generate", 1)
	set("vodcluster.pipeline_s", "vodcluster.pipeline", 1)
	set("replicate.adams_s", "replicate.adams", 1)
	set("replicate.zipf_s", "replicate.zipf", 1)
	set("replicate.classification_s", "replicate.classification", 1)
	set("apportion.divisor_s", "apportion.divisor", 1)
	set("place.slf_s", "place.slf", 1)
	set("core.validate_s", "core.validate", 1)
	set("anneal.initial_s", "anneal.initial", 1)
	set("anneal.minimize_s", "anneal.minimize", 1)
	set("anneal.evaluate_ns", "anneal.evaluate", 1e9)
	set("serve.failover.fail_backend_ms", "serve.fail_backend", 1e3)
	set("serve.rebalance.land_us", "serve.land_replica", 1e6)
	set("serve.rebalance.evict_us", "serve.evict_replica", 1e6)
}

// engineLayers measures the admission engine's layers directly, with no
// socket: the lock-free cluster accounting, the least-loaded policy on it,
// and Server.Open/Close on the sharded engine, the single-shard engine and
// the sharded engine with the session tracer on.
func engineLayers(d *daemon, seed int64, budget time.Duration, out map[string]float64) error {
	slice := budget / 8
	vids := videoSequence(seed, 99, d.p.M(), 1<<12, paperTheta)
	next := 0
	video := func() int { next = (next + 1) % len(vids); return vids[next] }
	rate, _ := d.p.Catalog.FixedBitRate()

	c, err := serve.NewCluster(d.p, d.layout)
	if err != nil {
		return err
	}
	out["serve.cluster.reserve_ns"] = timeOp(slice, 100000, func() {
		if s := video() % c.Servers(); c.TryReserve(s, int64(rate)) {
			c.Release(s, int64(rate))
		}
	})
	pol, err := serve.NewPolicy("least-loaded", c)
	if err != nil {
		return err
	}
	out["serve.policy.admit_ns"] = timeOp(slice, 100000, func() {
		if g, ok := pol.Admit(video()); ok {
			pol.Release(g)
		}
	})

	// openClose times Open and Close of one session apart, on an engine kept
	// half full so that both find work to do.
	openClose := func(cfg serve.Config) (open, closed float64, err error) {
		srv, err := serve.New(d.p, d.layout, cfg)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Shutdown()
		for i := 0; i < d.streamCapacity()/2; i++ {
			if _, _, err := srv.Open(video()); err != nil {
				return 0, 0, err
			}
		}
		var opens, closes sample
		deadline := time.Now().Add(slice)
		for len(opens) < 3 || time.Now().Before(deadline) {
			var inOpen, inClose time.Duration
			const n = 2000
			for i := 0; i < n; i++ {
				t0 := time.Now()
				info, outcome, err := srv.Open(video())
				t1 := time.Now()
				if err != nil {
					return 0, 0, err
				}
				inOpen += t1.Sub(t0)
				if outcome == serve.OutcomeAccepted {
					srv.Close(info.ID)
					inClose += time.Since(t1)
				}
			}
			opens = append(opens, float64(inOpen)/n)
			closes = append(closes, float64(inClose)/n)
		}
		return opens.median(), closes.median(), nil
	}
	sharded := serve.Config{Shards: d.p.N(), Policy: "least-loaded"}
	open, closed, err := openClose(sharded)
	if err != nil {
		return err
	}
	out["serve.engine.open_ns"], out["serve.engine.close_ns"] = open, closed
	// Both sides of the difference are one admission and its release.
	out["serve.engine.dispatch_overhead_ns"] = open + closed - out["serve.policy.admit_ns"]
	if out["serve.engine.open_k1_ns"], _, err = openClose(serve.Config{Shards: 1, Policy: "least-loaded"}); err != nil {
		return err
	}
	sharded.Tracer = obs.NewTracer(1 << 16)
	if out["serve.engine.open_traced_ns"], _, err = openClose(sharded); err != nil {
		return err
	}
	ring := obs.NewTracer(1 << 16)
	out["obs.tracer_record_ns"] = timeOp(slice, 100000, func() {
		ring.Record(obs.Event{TS: ring.NowNS(), Kind: obs.KindAdmit, Session: 1, Video: 1, Server: 1})
	})
	return nil
}

// ingressLayers measures the fronts and clients around the engine on a
// daemon of their own, so that their traffic — some of it deliberately off
// the fast path — stays out of the workload daemon's leak check.
func ingressLayers(seed int64, budget time.Duration, out map[string]float64) error {
	slice := budget / 8
	d, err := startDaemon(nil, 1)
	if err != nil {
		return err
	}
	defer d.stop()
	vids := videoSequence(seed, 98, d.p.M(), 1<<12, paperTheta)
	next := 0
	video := func() int { next = (next + 1) % len(vids); return vids[next] }

	if out["loadgen.echo_rtt_us"], err = echoRTT(slice); err != nil {
		return err
	}

	// openRTT is the median µs of one open (closed again outside the timing)
	// over the benchmark's own connection to addr; send queues the open.
	openRTT := func(addr string, send func(c *conn, v int)) (float64, error) {
		c, err := dial(addr, d.p.N())
		if err != nil {
			return 0, err
		}
		defer c.close()
		return medianOf(slice, 200, func() (float64, error) {
			v := video()
			send(c, v)
			start := time.Now()
			if err := c.flush(); err != nil {
				return 0, err
			}
			dec, err := c.readOpen(v)
			if err != nil {
				return 0, err
			}
			us := float64(time.Since(start)) / 1e3
			if dec.accepted {
				c.queueClose(dec.id)
				if err := c.flush(); err != nil {
					return 0, err
				}
				err = c.readClose()
			}
			return us, err
		})
	}
	canonical := func(c *conn, v int) { c.queueOpen(v) }
	rtt, err := openRTT(d.addr, canonical)
	if err != nil {
		return err
	}
	out["serve.ingress.front_overhead_us"] = rtt - out["loadgen.echo_rtt_us"] - out["serve.engine.open_ns"]/1e3
	// Valid JSON, but not the canonical bytes: the ingress hands it to
	// encoding/json.
	if out["serve.ingress.fallback_rtt_us"], err = openRTT(d.addr, func(c *conn, v int) {
		c.queue("/open", []byte(fmt.Sprintf(`{ "video": %d }`, v)))
	}); err != nil {
		return err
	}

	// The net/http front the daemon also has, on a listener of its own.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := &http.Server{Handler: d.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = mux.Serve(ln) // returns when mux is closed below
	}()
	defer func() {
		mux.Close()
		<-served
	}()
	if out["serve.mux.rtt_us"], err = openRTT(ln.Addr().String(), canonical); err != nil {
		return err
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	if out["serve.metrics.render_us"], err = medianOf(slice, 20, func() (float64, error) {
		start := time.Now()
		resp, err := client.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return float64(time.Since(start)) / 1e3, err
	}); err != nil {
		return err
	}

	// The repository's two clients on the same daemon.
	fc, err := serve.DialFast(d.addr)
	if err != nil {
		return err
	}
	defer fc.Close()
	if out["serve.client.fastconn_rtt_us"], err = medianOf(slice, 200, func() (float64, error) {
		start := time.Now()
		info, outcome, err := fc.Open(video())
		us := float64(time.Since(start)) / 1e3
		if err == nil && outcome == serve.OutcomeAccepted {
			_, err = fc.CloseSession(info.ID)
		}
		return us, err
	}); err != nil {
		return err
	}
	cl := serve.NewClient("http://" + d.addr)
	ctx := context.Background()
	out["serve.client.request_rtt_us"], err = medianOf(slice, 50, func() (float64, error) {
		start := time.Now()
		info, outcome, _, err := cl.Request(ctx, video())
		us := float64(time.Since(start)) / 1e3
		if err == nil && outcome == serve.OutcomeAccepted {
			err = cl.CloseSession(ctx, info.ID)
		}
		return us, err
	})
	return err
}

// rebalanceRound times one control round of the live rebalancer — snapshot
// the estimator, re-anneal, diff — as the daemon runs it, on a daemon of its
// own with a warmed estimator. The demand offered is the demand planned for,
// so rounds end with no plan and the next one re-anneals again.
func rebalanceRound(seed int64, budget time.Duration) (float64, error) {
	d, err := startDaemon(nil, churnCompress)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	// No round of its own accord: only Trigger starts one.
	ctl, err := rebalance.New(d.srv, rebalance.Config{Interval: 1e12})
	if err != nil {
		return 0, err
	}
	ctl.Start()
	defer ctl.Stop()
	vids := videoSequence(seed, 97, d.p.M(), 5000, paperTheta)
	var ms sample
	for deadline := time.Now().Add(budget); len(ms) < 3 || time.Now().Before(deadline); {
		for _, v := range vids {
			ctl.Observe(v)
		}
		done := ctl.Rounds() + ctl.Skipped()
		start := time.Now()
		ctl.Trigger()
		for ctl.Rounds()+ctl.Skipped() == done {
			if time.Since(start) > 5*time.Second {
				return 0, fmt.Errorf("rebalance round did not finish in 5 s")
			}
			time.Sleep(50 * time.Microsecond)
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		if ctl.Status().PendingMoves > 0 {
			break // a plan is open; further triggers would execute it, not re-anneal
		}
	}
	return ms.median(), nil
}

func (w *closedLoop) layers(budget time.Duration, out map[string]float64) error {
	if err := engineLayers(w.d, w.e.seed, budget/2, out); err != nil {
		return err
	}
	return ingressLayers(w.e.seed, budget/2, out)
}

func (w *churn) layers(budget time.Duration, out map[string]float64) error {
	if err := engineLayers(w.d, w.e.seed, budget/2, out); err != nil {
		return err
	}
	var err error
	if out["loadgen.echo_rtt_us"], err = echoRTT(budget / 8); err != nil {
		return err
	}
	out["rebalance.round_ms"], err = rebalanceRound(w.e.seed, budget/4)
	return err
}

// medianOf takes one measurement per call of fn, for about budget and at
// least n times, and returns the median.
func medianOf(budget time.Duration, n int, fn func() (float64, error)) (float64, error) {
	var xs sample
	for deadline := time.Now().Add(budget); len(xs) < n || time.Now().Before(deadline); {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return xs.median(), nil
}

// timeOp reports the median time of one call of fn in nanoseconds: it runs
// fn in batches of n for about budget and takes the median batch.
func timeOp(budget time.Duration, n int, fn func()) float64 {
	var per sample
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return per.median()
}
