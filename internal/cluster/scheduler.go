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
// Decorators that wrap a base Scheduler (Redirecting, degradation) expose the
// wrapped policy via Unwrap() so the simulator can find the seeded
// scheduler through the chain.
type SeededScheduler interface {
	SeedDecision(rng *stats.RNG)
}

// View is the read-only cluster a rank reads. *State implements it
// (eligible = up) and so does the daemon's concurrent cluster (eligible =
// up, suspect or recovering), so one rank function decides for both.
type View interface {
	// Holders returns the servers holding video v (shared; do not modify).
	Holders(v int) []int
	// FreeBandwidth returns server s's unused outgoing bandwidth, bits/s.
	FreeBandwidth(s int) float64
	// Eligible reports whether server s accepts new streams.
	Eligible(s int) bool
	// CanServe reports whether s is eligible and has room for one more
	// stream of v (the simulator also counts stream limits and per-copy
	// rates here, which free bandwidth alone cannot express).
	CanServe(s, v int) bool
	// Servers returns the number of servers.
	Servers() int
	// BackboneFree returns the unused internal backbone bandwidth, bits/s.
	BackboneFree() float64
}

// Draw is a randomized rank's source: Intn returns a uniform integer in
// [0, n).
type Draw interface{ Intn(n int) int }

// Ranker is one scheduling policy's choice of server, written once over a
// View. The simulator's Schedule is Rank plus State.CanServe; the daemon's
// admission is Rank plus an atomic reservation. Each caller keeps its own
// rotation cursor and random source and passes them in.
type Ranker interface {
	// Rank returns the server that should carry one request for v, or -1.
	// k is the caller's rotation cursor for v, read only by rotating ranks;
	// d is the caller's random source, drawn only by randomized ranks. The
	// caller still checks that the pick can serve v.
	Rank(w View, v, k int, d Draw) int
	// Rotates reports whether Rank reads k, so the caller advances its
	// cursor once per request only for the policies that use it.
	Rotates() bool
}

// MostFree returns the eligible holder of v, other than exclude, with the
// most free outgoing bandwidth, or -1 when none has any. Ties go to the
// earlier holder. It is least-loaded's rank and, with the failed server
// excluded, every policy's failover rank: resilience.TryFailover's rule
// under the fixed-rate model.
func MostFree(w View, v, exclude int) int {
	best, bestFree := -1, 0.0
	for _, s := range w.Holders(v) {
		if s == exclude || !w.Eligible(s) {
			continue
		}
		if free := w.FreeBandwidth(s); free > bestFree {
			best, bestFree = s, free
		}
	}
	return best
}

// Redirect is backbone request redirection (paper §6, ref. [29]), the
// fallback for a request for v at rate that the policy's own pick cannot
// take. It returns the first holder that can serve v directly (server ==
// source), else a proxy fed over the backbone: the eligible server with
// the most free outgoing bandwidth of at least rate (ties to the later
// index), sourced from v's first eligible holder. server is -1 when the
// backbone lacks rate, v has no eligible holder, or no proxy has room.
func Redirect(w View, v int, rate float64) (server, source int) {
	if w.BackboneFree() < rate {
		return -1, -1
	}
	source = -1
	for _, s := range w.Holders(v) {
		if w.CanServe(s, v) {
			return s, s
		}
		if source < 0 && w.Eligible(s) {
			source = s
		}
	}
	if source < 0 {
		return -1, -1
	}
	server, bestFree := -1, rate
	for s := range w.Servers() {
		if !w.Eligible(s) {
			continue
		}
		if free := w.FreeBandwidth(s); free >= bestFree {
			server, bestFree = s, free
		}
	}
	if server < 0 {
		return -1, -1
	}
	return server, source
}

// Redirecting is the simulator's side of Redirect: it decorates a base
// scheduler, and a request the base rejects goes to Redirect at the
// video's encoding rate.
type Redirecting struct{ Base Scheduler }

// Name implements Scheduler.
func (r Redirecting) Name() string { return r.Base.Name() + "+redirect" }

// Unwrap exposes the base policy, so the simulator can find a
// SeededScheduler through the decorator.
func (r Redirecting) Unwrap() Scheduler { return r.Base }

// Schedule implements Scheduler.
func (r Redirecting) Schedule(st *State, v int) Decision {
	if d := r.Base.Schedule(st, v); d.Accept {
		return d
	}
	s, src := Redirect(st, v, st.p.Catalog[v].BitRate)
	if s < 0 {
		return Reject
	}
	return Decision{Accept: true, Server: s, Source: src}
}

// turn returns video v's rotation cursor and advances it: the simulator's
// side of a rotating rank.
func (st *State) turn(v int) int {
	n := len(st.holders[v])
	if n == 0 {
		return 0
	}
	// k mod n and (k+1) mod n without dividing: the stored cursor is below
	// n unless a replica was evicted since.
	k := st.rrNext[v]
	if k >= n {
		k %= n
	}
	next := k + 1
	if next == n {
		next = 0
	}
	st.rrNext[v] = next
	return k
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

// Rotates implements Ranker.
func (StaticRoundRobin) Rotates() bool { return true }

// Rank implements Ranker: the holder at the rotation's position k.
func (StaticRoundRobin) Rank(w View, v, k int, _ Draw) int {
	holders := w.Holders(v)
	if len(holders) == 0 {
		return -1
	}
	return holders[k%len(holders)]
}

// Schedule implements Scheduler.
func (r StaticRoundRobin) Schedule(st *State, v int) Decision {
	if s := r.Rank(st, v, st.turn(v), nil); s >= 0 && st.CanServe(s, v) {
		return Direct(s)
	}
	return Reject
}

// FirstAvailable rotates like StaticRoundRobin but, when the designated
// replica's server is saturated, tries the video's remaining replicas before
// rejecting. This is the natural "retry" refinement of the paper's policy and
// quantifies how much of the replication benefit static scheduling leaves on
// the table.
type FirstAvailable struct{}

// Name implements Scheduler.
func (FirstAvailable) Name() string { return "first-available" }

// Rotates implements Ranker.
func (FirstAvailable) Rotates() bool { return true }

// Rank implements Ranker: the first holder from rotation position k on
// that can serve v.
func (FirstAvailable) Rank(w View, v, k int, _ Draw) int {
	holders := w.Holders(v)
	for probe := range holders {
		if s := holders[(k+probe)%len(holders)]; w.CanServe(s, v) {
			return s
		}
	}
	return -1
}

// Schedule implements Scheduler.
func (r FirstAvailable) Schedule(st *State, v int) Decision {
	if s := r.Rank(st, v, st.turn(v), nil); s >= 0 && st.CanServe(s, v) {
		return Direct(s)
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
// before the first SeedDecision) it draws from RandomStream(seed), staying
// deterministic per seed.
type RandomHolder struct {
	rng *stats.RNG
}

// NewRandomHolder returns a random-holder policy whose fallback stream is
// RandomStream(seed) (used only until SeedDecision installs per-decision
// streams).
func NewRandomHolder(seed int64) *RandomHolder {
	return &RandomHolder{rng: RandomStream(seed)}
}

// RandomStream is the stream a RandomHolder built with seed draws from
// before the simulator seeds its decisions. The daemon's random policy
// draws from RandomStream(0) too, so a sequential replay picks the same
// holders on both sides.
func RandomStream(seed int64) *stats.RNG { return stats.NewRNG(seed).Derive(7) }

// Name implements Scheduler.
func (*RandomHolder) Name() string { return "random" }

// SeedDecision implements SeededScheduler.
func (r *RandomHolder) SeedDecision(rng *stats.RNG) { r.rng = rng }

// Rotates implements Ranker.
func (RandomHolder) Rotates() bool { return false }

// Rank implements Ranker: the d.Intn(n)-th of the n holders that can serve
// v, in holder order. It draws only when n > 0. A view that changes
// between its two passes (the daemon's, under concurrent admissions) may
// leave the draw past the end; that rank returns -1.
func (RandomHolder) Rank(w View, v, _ int, d Draw) int {
	holders := w.Holders(v)
	n := 0
	for _, s := range holders {
		if w.CanServe(s, v) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	i := d.Intn(n)
	for _, s := range holders {
		if w.CanServe(s, v) {
			if i == 0 {
				return s
			}
			i--
		}
	}
	return -1
}

// Schedule implements Scheduler.
func (r *RandomHolder) Schedule(st *State, v int) Decision {
	if s := r.Rank(st, v, 0, r.rng); s >= 0 && st.CanServe(s, v) {
		return Direct(s)
	}
	return Reject
}

// LeastLoaded serves each request from the eligible replica holder with the
// most free outgoing bandwidth — the strongest dynamic policy available
// without redirection, used as the upper-bound control in scheduling
// ablations. A down holder is never ranked, so its emptied link cannot
// shadow a live holder with room.
type LeastLoaded struct{}

// Name implements Scheduler.
func (LeastLoaded) Name() string { return "least-loaded" }

// Rotates implements Ranker.
func (LeastLoaded) Rotates() bool { return false }

// Rank implements Ranker: MostFree with nothing excluded.
func (LeastLoaded) Rank(w View, v, _ int, _ Draw) int { return MostFree(w, v, -1) }

// Schedule implements Scheduler.
func (r LeastLoaded) Schedule(st *State, v int) Decision {
	if s := r.Rank(st, v, 0, nil); s >= 0 && st.CanServe(s, v) {
		return Direct(s)
	}
	return Reject
}
