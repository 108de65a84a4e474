package serve

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/resilience"
)

// RetryConfig tunes live admission retry-with-backoff. All durations are
// virtual seconds — the time base traces and the simulator use — divided by
// the daemon's compression factor for real sleeps, so a compressed replay
// retries on the same virtual schedule the simulator's resilience.Retrier
// does. Zero-valued fields take the simulator's defaults: base 5 s,
// factor 2, jitter 0.5, patience 120 s, queue limit 256.
type RetryConfig struct {
	// Base is the delay before the first retry, virtual seconds.
	Base float64
	// Factor multiplies the delay on each further attempt.
	Factor float64
	// Jitter spreads each delay uniformly over ±Jitter/2 of itself, in [0, 1].
	Jitter float64
	// Patience bounds the total virtual time a request backs off before
	// reneging, counted from its first rejection.
	Patience float64
	// Limit bounds how many requests wait in retry at once; requests
	// rejected while the queue is full fail immediately.
	Limit int
}

// retrier is the live retry queue: a bounded count of request goroutines
// sleeping out their exponential backoff on real clocks, with the same delay
// schedule, patience reneging, and queue bound as the simulator's
// resilience.Retrier.
type retrier struct {
	s       *Server
	pol     resilience.Policy
	pending atomic.Int64
	peak    atomic.Int64
}

// newRetrier validates the config against the shared resilience tunables.
func newRetrier(s *Server, cfg RetryConfig) (*retrier, error) {
	pol := resilience.Policy{
		Retry:         true,
		RetryBase:     cfg.Base,
		RetryFactor:   cfg.Factor,
		RetryJitter:   cfg.Jitter,
		RetryPatience: cfg.Patience,
		RetryLimit:    cfg.Limit,
	}.WithDefaults()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &retrier{s: s, pol: pol}, nil
}

// RetryPending returns the number of requests currently waiting in the
// retry queue, and the largest queue depth seen. Both are 0 when retry is
// not configured.
func (s *Server) RetryPending() (pending, peak int64) {
	if s.retry == nil {
		return 0, 0
	}
	return s.retry.pending.Load(), s.retry.peak.Load()
}

// OpenRetry runs one admission decision with the daemon's retry policy: a
// capacity rejection backs off (exponentially, with jitter, in compressed
// virtual time) and re-attempts admission until accepted, out of patience,
// the queue is full, or ctx or the daemon shuts the request down. Exactly
// one settled decision is recorded per call, whatever the attempt count.
// With no retry configured it is exactly Open.
func (s *Server) OpenRetry(ctx context.Context, v int) (SessionInfo, Outcome, error) {
	if s.retry == nil {
		return s.Open(v)
	}
	arriveNS := s.tracer.NowNS()
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindArrive, Video: v})
	if v < 0 || v >= s.c.Videos() {
		s.met.BadVideo()
		return SessionInfo{}, OutcomeRejected, fmt.Errorf("serve: video %d outside catalog of %d", v, s.c.Videos())
	}
	s.observeDemand(v) // once per request, however many retry attempts follow
	start := time.Now()
	info, outcome := s.attempt(v, arriveNS, false)
	if outcome != OutcomeRejected {
		return info, outcome, nil
	}
	return s.retry.run(ctx, v, arriveNS, start)
}

// run owns one rejected request from its first (unsettled) rejection to its
// final outcome.
func (r *retrier) run(ctx context.Context, v int, arriveNS int64, start time.Time) (SessionInfo, Outcome, error) {
	s := r.s
	// Bounded queue: a full queue makes the rejection final immediately.
	for {
		n := r.pending.Load()
		if n >= int64(r.pol.RetryLimit) {
			s.met.Decision(false, false, false, time.Since(start))
			s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindReject, Video: v,
				DurNS: s.tracer.NowNS() - arriveNS, Detail: "retry queue full"})
			return SessionInfo{}, OutcomeRejected, nil
		}
		if r.pending.CompareAndSwap(n, n+1) {
			for {
				p := r.peak.Load()
				if n+1 <= p || r.peak.CompareAndSwap(p, n+1) {
					break
				}
			}
			break
		}
	}
	defer r.pending.Add(-1)

	renege := func(detail string) (SessionInfo, Outcome, error) {
		s.met.Reneged()
		s.met.Decision(false, false, false, time.Since(start))
		s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindRenege, Video: v,
			DurNS: s.tracer.NowNS() - arriveNS, Detail: detail})
		return SessionInfo{}, OutcomeRejected, nil
	}

	waited := 0.0 // virtual seconds spent backing off so far
	for attempt := 0; ; attempt++ {
		d := resilience.BackoffDelay(r.pol, attempt, rand.Float64())
		if waited+d > r.pol.RetryPatience {
			return renege("")
		}
		waited += d
		t := time.NewTimer(time.Duration(d / s.compress * float64(time.Second)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return renege("context canceled")
		case <-s.baseCtx.Done():
			t.Stop()
			info, outcome := s.refuse(v, arriveNS, start)
			return info, outcome, nil
		}
		s.met.Retried()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRetry, Video: v,
			Detail: fmt.Sprintf("attempt %d", attempt+1)})
		info, outcome := s.attempt(v, arriveNS, false)
		if outcome != OutcomeRejected {
			return info, outcome, nil
		}
	}
}
