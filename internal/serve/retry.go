package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/resilience"
	"vodcluster/internal/stats"
)

// retrier is the live retry queue: the simulator's resilience.Retrier —
// its queue bound, delay schedule and patience — held under a mutex, with
// each queued request's goroutine sleeping out its backoff on a real timer
// at the compressed virtual time. Only a rejected request takes the mutex.
type retrier struct {
	s  *Server
	mu sync.Mutex
	q  *resilience.Retrier
}

// newRetrier builds the daemon's retry queue for a defaulted policy. Its
// jitter comes from the stream sim.Run gives its retrier at seed 0.
func newRetrier(s *Server, pol resilience.Policy) *retrier {
	return &retrier{s: s, q: resilience.NewRetrier(pol, stats.NewRNG(0).Derive(3))}
}

// RetryPending returns the number of requests currently waiting in the
// retry queue, and the largest queue depth seen. Both are 0 when retry is
// not configured.
func (s *Server) RetryPending() (pending, peak int64) {
	if s.retry == nil {
		return 0, 0
	}
	s.retry.mu.Lock()
	defer s.retry.mu.Unlock()
	return int64(s.retry.q.Pending()), int64(s.retry.q.PeakPending())
}

// OpenRetry runs one admission decision with the daemon's retry policy: a
// capacity rejection backs off (exponentially, with jitter, in compressed
// virtual time) and re-attempts admission until accepted, out of patience,
// the queue is full, or ctx or the daemon shuts the request down. Exactly
// one settled decision is recorded per call, whatever the attempt count.
// With no retry configured it is exactly Open.
func (s *Server) OpenRetry(ctx context.Context, v int) (SessionInfo, Outcome, error) {
	return s.openRetry(ctx, nil, v)
}

// openRetry is OpenRetry for a caller whose sessions register in partition
// home (nil: round-robin, as for Open).
func (s *Server) openRetry(ctx context.Context, home *partition, v int) (SessionInfo, Outcome, error) {
	if s.retry == nil {
		return s.open(home, v)
	}
	arriveNS := s.tracer.NowNS()
	s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindArrive, Video: v})
	if v < 0 || v >= s.c.Videos() {
		s.met.BadVideo()
		return SessionInfo{}, OutcomeRejected, fmt.Errorf("serve: video %d outside catalog of %d", v, s.c.Videos())
	}
	s.observeDemand(v) // once per request, however many retry attempts follow
	start := s.nowNS()
	info, outcome := s.attempt(home, v, arriveNS, false)
	if outcome != OutcomeRejected {
		return info, outcome, nil
	}
	return s.retry.run(ctx, home, v, arriveNS, start)
}

// delay is the Retrier's backoff before retry number attempt, under the
// mutex; ok is false when the request reneges instead.
func (r *retrier) delay(attempt int, waited float64) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.Delay(attempt, waited)
}

// run owns one rejected request from its first (unsettled) rejection to its
// final outcome; start is the request's nowNS stamp.
func (r *retrier) run(ctx context.Context, home *partition, v int, arriveNS, start int64) (SessionInfo, Outcome, error) {
	s := r.s
	row := s.rowOf(home)
	r.mu.Lock()
	queued := r.q.TryEnqueue()
	r.mu.Unlock()
	if !queued {
		// Bounded queue: a full queue makes the rejection final immediately.
		row.decision(false, false, false, time.Duration(s.nowNS()-start))
		s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindReject, Video: v,
			DurNS: s.tracer.NowNS() - arriveNS, Detail: "retry queue full"})
		return SessionInfo{}, OutcomeRejected, nil
	}
	defer func() {
		r.mu.Lock()
		r.q.Resolve()
		r.mu.Unlock()
	}()

	renege := func(detail string) (SessionInfo, Outcome, error) {
		s.met.Reneged()
		row.decision(false, false, false, time.Duration(s.nowNS()-start))
		s.tracer.Record(obs.Event{TS: arriveNS, Kind: obs.KindRenege, Video: v,
			DurNS: s.tracer.NowNS() - arriveNS, Detail: detail})
		return SessionInfo{}, OutcomeRejected, nil
	}

	waited := 0.0 // virtual seconds spent backing off so far
	for attempt := 0; ; attempt++ {
		d, ok := r.delay(attempt, waited)
		if !ok {
			return renege("")
		}
		waited += d
		t := time.NewTimer(s.wall(d))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return renege("context canceled")
		case <-s.baseCtx.Done():
			t.Stop()
			info, outcome := s.refuse(row, v, arriveNS, start)
			return info, outcome, nil
		}
		s.met.Retried()
		s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRetry, Video: v,
			Detail: fmt.Sprintf("attempt %d", attempt+1)})
		info, outcome := s.attempt(home, v, arriveNS, false)
		if outcome != OutcomeRejected {
			return info, outcome, nil
		}
	}
}
