package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"vodcluster/internal/faults"
	"vodcluster/internal/metrics"
	"vodcluster/internal/stats"
	"vodcluster/internal/workload"
)

// Client talks to a vodserved daemon: admissions over fast connections
// (FastConn), the rare admin calls over a plain http.Client.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8370".
	Base string
	// Conns is the number of persistent fast connections Replay drives
	// (each owned by one worker goroutine); 0 picks 4×GOMAXPROCS clamped
	// to [8, 64].
	Conns int

	mu sync.Mutex
	fc *FastConn // Request's and CloseSession's connection, dialed on first use
}

// NewClient builds a client for a daemon base URL.
func NewClient(base string) *Client { return &Client{Base: base} }

// onConn runs fn on *fc, dialing it when nil. After a connection error it
// drops the connection and tries once more on a fresh one, so a connection
// the daemon closed costs one redial, not a failed request. A request the
// daemon answered with an error status is not sent again.
func (c *Client) onConn(fc **FastConn, fn func(*FastConn) error) error {
	var err error
	var answered *statusError
	for attempt := 0; attempt < 2; attempt++ {
		if *fc == nil {
			if *fc, err = c.DialFast(); err != nil {
				*fc = nil
				return err
			}
		}
		if err = fn(*fc); err == nil || errors.As(err, &answered) {
			return err
		}
		(*fc).Close()
		*fc = nil
	}
	return err
}

// Request runs one admission decision for video v and returns the outcome,
// the session info when accepted, and the observed admission latency.
func (c *Client) Request(ctx context.Context, v int) (SessionInfo, Outcome, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return SessionInfo{}, "", 0, err
	}
	var info SessionInfo
	var out Outcome
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	err := c.onConn(&c.fc, func(fc *FastConn) (err error) {
		info, out, err = fc.Open(v)
		return err
	})
	return info, out, time.Since(start), err
}

// CloseSession ends session id early on the daemon.
func (c *Client) CloseSession(ctx context.Context, id int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var closed bool
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.onConn(&c.fc, func(fc *FastConn) (err error) {
		closed, err = fc.CloseSession(id)
		return err
	})
	if err == nil && !closed {
		err = fmt.Errorf("serve: closing session %d: no such session", id)
	}
	return err
}

// Close releases the connection Request and CloseSession dialed. It is
// idempotent, and a later Request or CloseSession dials a fresh one.
// Replay's connections are its own and close when it returns.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fc == nil {
		return nil
	}
	err := c.fc.Close()
	c.fc = nil
	return err
}

// Metrics fetches and returns the daemon's raw Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Report aggregates one replay: outcome counts, error count, observed
// admission latencies, and the wall-clock span of the decisions.
type Report struct {
	Requests   int
	Accepted   int
	Rejected   int
	Draining   int
	Redirected int
	Errors     int
	// FirstError records the first transport/protocol error, if any.
	FirstError error
	// Latencies holds every decision's observed latency, in arrival order.
	Latencies []time.Duration
	// Times holds each settled decision's dispatch offset in trace
	// (virtual) seconds, aligned with Latencies and Outcomes — what
	// windowed measurements (post-failure rejection rate, throughput after
	// a scripted crash) slice on.
	Times []float64
	// Outcomes holds each settled decision's outcome, aligned with Times.
	Outcomes []Outcome
	// Wall is the wall-clock time from first dispatch to last settled
	// decision.
	Wall time.Duration
	// DispatchWall is the wall-clock span of the dispatch loop alone —
	// first scheduled request to last handoff. Requests/DispatchWall is the
	// rate the generator actually offered, which the caller must compare
	// against the rate it asked for: an overloaded generator silently
	// under-drives the daemon and makes every downstream number look rosier
	// than reality.
	DispatchWall time.Duration
	// DispatchLagMax is the worst gap between a request's scheduled
	// dispatch time and the moment the dispatcher actually handed it off —
	// the direct symptom of a generator that cannot keep up.
	DispatchLagMax time.Duration
}

// OfferedRate returns the request rate the dispatcher actually achieved, in
// requests per wall second.
func (r *Report) OfferedRate() float64 {
	if r.DispatchWall <= 0 {
		return 0
	}
	return float64(r.Requests) / r.DispatchWall.Seconds()
}

// Since aggregates the settled decisions dispatched at or after virtual
// time t: how many there were and how many were refused (capacity
// rejections plus drain refusals). It is the live counterpart of running
// the simulator with Warmup=t — both count only what arrived in [t, end).
func (r *Report) Since(t float64) (requests, rejected int) {
	for i, at := range r.Times {
		if at < t {
			continue
		}
		requests++
		if r.Outcomes[i] != OutcomeAccepted {
			rejected++
		}
	}
	return requests, rejected
}

// RejectionRate returns rejected (capacity + draining) over settled
// decisions, the quantity cross-validated against sim.Run.
func (r *Report) RejectionRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Rejected+r.Draining) / float64(r.Requests)
}

// DecisionsPerSec returns settled admission decisions per wall second.
func (r *Report) DecisionsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Wall.Seconds()
}

// LatencyQuantile returns the q-quantile (q in [0,1]) of observed admission
// latencies.
func (r *Report) LatencyQuantile(q float64) time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	xs := make([]float64, len(r.Latencies))
	for i, d := range r.Latencies {
		xs[i] = float64(d)
	}
	sort.Float64s(xs)
	return time.Duration(stats.Quantile(xs, q))
}

// Result converts the replay into a metrics.Result so live measurements
// flow through the same aggregation/reporting stack as simulated ones.
func (r *Report) Result() metrics.Result {
	res := metrics.Result{
		Requests:   r.Requests,
		Accepted:   r.Accepted,
		Rejected:   r.Rejected + r.Draining,
		Redirected: r.Redirected,
	}
	if res.Requests > 0 {
		res.RejectionRate = float64(res.Rejected) / float64(res.Requests)
		res.FailureRate = res.RejectionRate
	}
	return res
}

// Replay replays a trace open-loop against the daemon at the given time
// compression: request i is dispatched at wall time Time_i/compress after
// the replay starts, regardless of how earlier decisions fared. A central
// timer loop hands requests to a pool of worker goroutines, each owning one
// persistent fast connection (Conns of them), so replay reuses sockets
// instead of paying a dial per decision; a worker whose connection dies
// redials once per request. The daemon must run with the same compression
// factor for its session occupancy to match the trace's virtual timeline.
// Dispatch stops early when ctx ends; already-dispatched requests still
// settle. Latencies are measured from the moment the dispatcher hands a
// request off, so worker-queue wait is honestly part of observed admission
// latency, and the report carries the dispatcher's own lag so callers can
// detect an under-driven run.
func (c *Client) Replay(ctx context.Context, tr *workload.Trace, compress float64) (*Report, error) {
	scaled, err := tr.Compress(compress)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		out        Outcome
		redirected bool
		lat        time.Duration
		err        error
	}
	results := make([]outcome, len(scaled.Requests))

	nconn := c.Conns
	if nconn <= 0 {
		nconn = 4 * runtime.GOMAXPROCS(0)
		if nconn < 8 {
			nconn = 8
		}
		if nconn > 64 {
			nconn = 64
		}
	}
	type job struct {
		i, v int
		at   time.Time
	}
	jobs := make(chan job, 4096)
	var wg sync.WaitGroup
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fc *FastConn
			defer func() {
				if fc != nil {
					fc.Close()
				}
			}()
			for j := range jobs {
				var info SessionInfo
				var out Outcome
				err := c.onConn(&fc, func(fc *FastConn) (err error) {
					info, out, err = fc.Open(j.v)
					return err
				})
				results[j.i] = outcome{out, info.Redirected, time.Since(j.at), err}
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var lagMax time.Duration
dispatch:
	for i, req := range scaled.Requests {
		sched := start.Add(time.Duration(req.Time * float64(time.Second)))
		if wait := time.Until(sched); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		now := time.Now()
		if lag := now.Sub(sched); lag > lagMax {
			lagMax = lag
		}
		select {
		case jobs <- job{i, req.Video, now}:
		case <-ctx.Done():
			break dispatch
		}
	}
	dispatchWall := time.Since(start)
	close(jobs)
	wg.Wait()

	rep := &Report{Wall: time.Since(start), DispatchWall: dispatchWall, DispatchLagMax: lagMax}
	for i, res := range results {
		switch {
		case res.err != nil:
			rep.Errors++
			if rep.FirstError == nil {
				rep.FirstError = res.err
			}
			continue
		case res.out == OutcomeAccepted:
			rep.Accepted++
			if res.redirected {
				rep.Redirected++
			}
		case res.out == OutcomeRejected:
			rep.Rejected++
		case res.out == OutcomeDraining:
			rep.Draining++
		default:
			continue // never dispatched (ctx ended before its slot)
		}
		rep.Requests++
		rep.Latencies = append(rep.Latencies, res.lat)
		rep.Times = append(rep.Times, tr.Requests[i].Time)
		rep.Outcomes = append(rep.Outcomes, res.out)
	}
	return rep, nil
}

// Fault applies one fault-schedule event on the daemon (POST /fault) — the
// transport fault replay (vodload -faults) drives scripted crashes through.
func (c *Client) Fault(ctx context.Context, e faults.Event) error {
	body, err := json.Marshal(e)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/fault", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("serve: applying fault: %s: %s", resp.Status, e.Error)
	}
	return nil
}
