package cluster

import "vodcluster/internal/stats"

// Scheduler chooses which replica (if any) serves a request for a video.
// Implementations may keep per-video state inside the State (the static
// round-robin cursor) but must not mutate bandwidth accounting; Admit does
// that after the decision.
type Scheduler interface {
	// Schedule returns the admission decision for one request for video v.
	Schedule(st *State, v int) Decision
	// Name identifies the policy in reports.
	Name() string
}

// SeededScheduler is an optional interface a Scheduler may implement to
// receive a fresh decision-scoped RNG before each Schedule call. The
// simulator derives the stream from (run seed, decision index), so
// randomized policies draw common random numbers: at decision k every
// policy replaying the same trace sees the same stream, no matter how much
// randomness earlier decisions consumed. That is what keeps counterfactual
// lockstep comparisons paired even across randomized policies.
//
// Decorators that wrap a base Scheduler (redirect, degradation) expose the
// wrapped policy via Unwrap() so the simulator can find the seeded
// scheduler through the chain.
type SeededScheduler interface {
	SeedDecision(rng *stats.RNG)
}

// StaticRoundRobin is the paper's scheduling model (§3.2): requests for a
// video rotate over its replicas in fixed order, regardless of load, so each
// replica receives w_i = p_i·λ·T/r_i expected requests. If the designated
// server lacks outgoing bandwidth the request is rejected — the paper's
// simple admission control. The cursor advances on every request, accepted
// or not, to preserve the rotation.
type StaticRoundRobin struct{}

// Name implements Scheduler.
func (StaticRoundRobin) Name() string { return "static-rr" }

// Schedule implements Scheduler.
func (StaticRoundRobin) Schedule(st *State, v int) Decision {
	holders := st.holders[v]
	if len(holders) == 0 {
		return Reject
	}
	k := st.rrNext[v] % len(holders)
	st.rrNext[v] = (k + 1) % len(holders)
	s := holders[k]
	if !st.CanServe(s, v) {
		return Reject
	}
	return Direct(s)
}

// FirstAvailable rotates like StaticRoundRobin but, when the designated
// replica's server is saturated, tries the video's remaining replicas before
// rejecting. This is the natural "retry" refinement of the paper's policy and
// quantifies how much of the replication benefit static scheduling leaves on
// the table.
type FirstAvailable struct{}

// Name implements Scheduler.
func (FirstAvailable) Name() string { return "first-available" }

// Schedule implements Scheduler.
func (FirstAvailable) Schedule(st *State, v int) Decision {
	holders := st.holders[v]
	if len(holders) == 0 {
		return Reject
	}
	k := st.rrNext[v] % len(holders)
	st.rrNext[v] = (k + 1) % len(holders)
	for probe := 0; probe < len(holders); probe++ {
		s := holders[(k+probe)%len(holders)]
		if st.CanServe(s, v) {
			return Direct(s)
		}
	}
	return Reject
}

// RandomHolder serves each request from a uniformly random replica holder
// that can serve it, rejecting only when no holder has room — the
// memoryless baseline between the paper's static rotation and the
// load-aware policies. It implements SeededScheduler: under the simulator
// each decision draws from its own (seed, decision-index) substream, so two
// runs at the same seed make identical random choices request for request
// even when their cluster states have diverged. Outside the simulator (or
// before the first SeedDecision) it draws from a private stream seeded at
// construction, staying deterministic per seed.
type RandomHolder struct {
	rng      *stats.RNG
	feasible []int // scratch for Schedule, reused across requests
}

// NewRandomHolder returns a random-holder policy whose fallback stream is
// seeded with seed (used only until SeedDecision installs per-decision
// streams).
func NewRandomHolder(seed int64) *RandomHolder {
	return &RandomHolder{rng: stats.NewRNG(seed).Derive(7)}
}

// Name implements Scheduler.
func (r *RandomHolder) Name() string { return "random" }

// SeedDecision implements SeededScheduler.
func (r *RandomHolder) SeedDecision(rng *stats.RNG) { r.rng = rng }

// Schedule implements Scheduler.
func (r *RandomHolder) Schedule(st *State, v int) Decision {
	feasible := r.feasible[:0]
	for _, s := range st.holders[v] {
		if st.CanServe(s, v) {
			feasible = append(feasible, s)
		}
	}
	r.feasible = feasible
	if len(feasible) == 0 {
		return Reject
	}
	return Direct(feasible[r.rng.Intn(len(feasible))])
}

// LeastLoaded serves each request from the replica holder with the most free
// outgoing bandwidth — the strongest dynamic policy available without
// redirection, used as the upper-bound control in scheduling ablations.
type LeastLoaded struct{}

// Name implements Scheduler.
func (LeastLoaded) Name() string { return "least-loaded" }

// Schedule implements Scheduler.
func (LeastLoaded) Schedule(st *State, v int) Decision {
	best := -1
	bestFree := 0.0
	for _, s := range st.holders[v] {
		if free := st.FreeBandwidth(s); free > bestFree {
			best, bestFree = s, free
		}
	}
	if best == -1 || !st.CanServe(best, v) {
		return Reject
	}
	return Direct(best)
}
