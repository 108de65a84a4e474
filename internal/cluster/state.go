// Package cluster models the runtime state of a distributed-storage VoD
// cluster serving streams under a fixed layout: per-server outgoing
// bandwidth accounting, the replica directory, admission control, and the
// replica-scheduling policies (static round-robin, as in the paper, plus
// least-loaded and first-available variants).
//
// The dispatcher model follows the paper: admission decisions are made
// centrally, servers stream directly to clients (TCP handoff), and a request
// is rejected when the required outgoing bandwidth is unavailable. When the
// problem defines internal backbone bandwidth, an admission failure may be
// repaired by request redirection (paper §6 / [29]): a server with spare
// outgoing bandwidth fetches the stream from a replica holder over the
// backbone and serves the client itself.
package cluster

import (
	"fmt"
	"sort"

	"vodcluster/internal/core"
)

// StreamID identifies an active stream within a State.
type StreamID int64

// Stream records one admitted stream's resource usage.
type Stream struct {
	// Video is the catalog rank of the title being streamed.
	Video int
	// Server is the server whose outgoing link carries the stream.
	Server int
	// Source is the server holding the replica; it differs from Server
	// only for redirected streams.
	Source int
	// Rate is the encoding bit rate in bits/s.
	Rate float64
	// Redirected reports whether the stream crosses the backbone.
	Redirected bool
}

// Decision is a scheduler's verdict for one request.
type Decision struct {
	// Accept is false when the request must be rejected.
	Accept bool
	// Server is the server whose outgoing link will carry the stream.
	Server int
	// Source is the replica holder feeding the stream (== Server for
	// direct service).
	Source int
}

// Reject is the decision that refuses a request.
var Reject = Decision{Accept: false}

// Direct returns an accepting decision served directly by holder s.
func Direct(s int) Decision { return Decision{Accept: true, Server: s, Source: s} }

// State is the mutable runtime state of the cluster. It is not safe for
// concurrent use; each simulation run owns one State.
//
// Admit, Release and Lookup neither hash nor allocate: active streams live
// in a StreamTable indexed by their handle, whose memory is the span of live
// handles — at most arrival rate × longest title, however long the State
// lives (see StreamTable for the bound and the one way to break it).
type State struct {
	p       *core.Problem
	layout  *core.Layout
	holders [][]int // video -> sorted servers holding it

	usedBW       []float64 // outgoing bits/s in use per server
	activeByServ []int     // active streams per server (outgoing link)
	backboneUsed float64

	up          []bool      // server liveness (failure injection)
	storageUsed []float64   // bytes of content per server
	streamLimit int         // max concurrent streams per server; 0 = unlimited
	copyRates   [][]float64 // optional per-(video,server) encoding rates

	streams StreamTable[Stream]
	nextID  StreamID

	rrNext []int // static round-robin cursor per video
}

// Option configures optional State behavior.
type Option func(*State)

// WithStreamLimit caps the number of concurrent streams each server's
// storage subsystem sustains (see internal/disk for deriving the cap from a
// disk-array model). Zero means unlimited — the paper's assumption that the
// outgoing network link is the only bottleneck.
func WithStreamLimit(limit int) Option {
	return func(st *State) { st.streamLimit = limit }
}

// WithCopyRates gives each placed copy its own encoding rate in bits/s
// (rates[v][s] > 0 exactly where the layout places video v on server s) —
// the scalable-bit-rate runtime of the paper's §4.3, where different copies
// of a video serve different qualities. Admission then charges the chosen
// copy's rate, and storage accounting uses rate·duration/8 per copy; the
// catalog's own BitRate fields are ignored.
func WithCopyRates(rates [][]float64) Option {
	return func(st *State) { st.copyRates = rates }
}

// New builds runtime state for a validated problem/layout pair.
func New(p *core.Problem, layout *core.Layout, opts ...Option) (*State, error) {
	st := &State{
		p:            p,
		layout:       layout,
		holders:      make([][]int, p.M()),
		usedBW:       make([]float64, p.N()),
		activeByServ: make([]int, p.N()),
		up:           make([]bool, p.N()),
		rrNext:       make([]int, p.M()),
	}
	for s := range st.up {
		st.up[s] = true
	}
	for v := range st.holders {
		st.holders[v] = append([]int(nil), layout.Servers[v]...)
	}
	st.storageUsed = layout.ServerStorageUsed(p)
	for _, opt := range opts {
		opt(st)
	}
	if st.copyRates == nil {
		if err := layout.Validate(p); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	} else {
		if err := st.validateCopyRates(layout); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// validateCopyRates checks the per-copy rate matrix against the layout and
// re-derives storage accounting with per-copy sizes.
func (st *State) validateCopyRates(layout *core.Layout) error {
	p := st.p
	if err := layout.ValidateStructure(p); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if len(st.copyRates) != p.M() {
		return fmt.Errorf("cluster: copy rates cover %d videos; problem has %d", len(st.copyRates), p.M())
	}
	used := make([]float64, p.N())
	for v := 0; v < p.M(); v++ {
		if len(st.copyRates[v]) != p.N() {
			return fmt.Errorf("cluster: copy rates for video %d cover %d servers; want %d", v, len(st.copyRates[v]), p.N())
		}
		for s := 0; s < p.N(); s++ {
			rate := st.copyRates[v][s]
			holds := layout.Holds(v, s)
			if holds && rate <= 0 {
				return fmt.Errorf("cluster: video %d on server %d has no copy rate", v, s)
			}
			if !holds && rate > 0 {
				return fmt.Errorf("cluster: copy rate set for video %d on server %d, which holds no copy", v, s)
			}
			if holds {
				used[s] += rate * p.Catalog[v].Duration / 8
			}
		}
	}
	for s, u := range used {
		if u > p.StorageOf(s)*(1+1e-9) {
			return fmt.Errorf("cluster: server %d stores %.0f bytes of %.0f available (Eq. 4, per-copy rates)", s, u, p.StorageOf(s))
		}
	}
	st.storageUsed = used
	// Runtime mutation (AddReplicaRate, RemoveReplica) edits the matrix, and
	// parallel replications share the caller's slice — keep a private copy.
	rates := make([][]float64, len(st.copyRates))
	for v := range st.copyRates {
		rates[v] = append([]float64(nil), st.copyRates[v]...)
	}
	st.copyRates = rates
	return nil
}

// RateOf returns the encoding rate served when video v streams from server
// s's copy: the per-copy rate when configured, the catalog rate otherwise.
func (st *State) RateOf(v, s int) float64 {
	if st.copyRates != nil {
		return st.copyRates[v][s]
	}
	return st.p.Catalog[v].BitRate
}

// HasCopyRates reports whether the state runs with per-copy encoding rates
// (WithCopyRates). It decides which replica-addition entry point applies:
// AddReplicaRate with rates, AddReplica without.
func (st *State) HasCopyRates() bool { return st.copyRates != nil }

// NominalRate returns the full-quality rate of video v: the catalog rate,
// or — under WithCopyRates, where the catalog field is ignored — the highest
// rate among the video's current copies. It is the reference degradation
// floors are relative to.
func (st *State) NominalRate(v int) float64 {
	if st.copyRates == nil {
		return st.p.Catalog[v].BitRate
	}
	max := 0.0
	for _, r := range st.copyRates[v] {
		if r > max {
			max = r
		}
	}
	return max
}

// Problem returns the problem this state was built for.
func (st *State) Problem() *core.Problem { return st.p }

// Layout returns the layout this state was built for.
func (st *State) Layout() *core.Layout { return st.layout }

// Holders returns the servers holding video v (shared slice; do not modify).
func (st *State) Holders(v int) []int { return st.holders[v] }

// FreeBandwidth returns the unused outgoing bandwidth of server s in bits/s.
func (st *State) FreeBandwidth(s int) float64 {
	return st.p.BandwidthOf(s) - st.usedBW[s]
}

// UsedBandwidth returns the outgoing bandwidth in use on server s.
func (st *State) UsedBandwidth(s int) float64 { return st.usedBW[s] }

// UsedBandwidths returns a copy of the per-server outgoing bandwidth usage.
func (st *State) UsedBandwidths() []float64 {
	return append([]float64(nil), st.usedBW...)
}

// ActiveStreams returns the number of streams currently using server s's
// outgoing link.
func (st *State) ActiveStreams(s int) int { return st.activeByServ[s] }

// TotalActive returns the number of active streams cluster-wide.
func (st *State) TotalActive() int { return st.streams.Len() }

// Servers returns the number of servers (View).
func (st *State) Servers() int { return st.p.N() }

// BackboneFree returns the unused internal backbone bandwidth in bits/s.
func (st *State) BackboneFree() float64 { return st.p.BackboneBandwidth - st.backboneUsed }

// CanServe reports whether server s is up and has outgoing room (and, when a
// stream limit is configured, disk headroom) for one more stream of video v.
func (st *State) CanServe(s, v int) bool {
	if !st.up[s] {
		return false
	}
	if st.streamLimit > 0 && st.activeByServ[s] >= st.streamLimit {
		return false
	}
	return st.FreeBandwidth(s) >= st.RateOf(v, s)-1e-6
}

// Eligible reports whether server s is alive, which in the simulator is
// exactly when it takes new streams (View).
func (st *State) Eligible(s int) bool { return st.up[s] }

// Torn is one stream torn down by a server failure: its last known record
// plus the handle it was admitted under (now released).
type Torn struct {
	ID StreamID
	Stream
}

// FailServer marks server s failed and tears down every stream it was
// serving — both streams using its outgoing link and redirected streams
// sourced from its replicas. It returns the torn-down streams in admission
// order so recovery policies (session failover) can try to re-admit them.
// Failing an already-failed server is a no-op.
func (st *State) FailServer(s int) []Torn {
	if s < 0 || s >= st.p.N() || !st.up[s] {
		return nil
	}
	st.up[s] = false
	// The table walks in ID order and IDs are monotone, so teardown and any
	// failover see the streams in admission order.
	var torn []Torn
	st.streams.Each(func(id StreamID, stream Stream) {
		if stream.Server == s || stream.Source == s {
			torn = append(torn, Torn{ID: id, Stream: stream})
		}
	})
	for _, t := range torn {
		if err := st.Release(t.ID); err != nil {
			panic(err) // ids were just read from the live table
		}
	}
	return torn
}

// RestoreServer brings a failed server back. Its replicas become servable
// again immediately (the paper's distributed-storage model keeps content on
// local disks across restarts).
func (st *State) RestoreServer(s int) {
	if s >= 0 && s < st.p.N() {
		st.up[s] = true
	}
}

// UpServers returns the number of live servers.
func (st *State) UpServers() int {
	n := 0
	for _, u := range st.up {
		if u {
			n++
		}
	}
	return n
}

// Admit runs the scheduler for a request for video v and, on acceptance,
// charges the resources and returns the stream handle. ok is false on
// rejection.
func (st *State) Admit(v int, sched Scheduler) (StreamID, bool) {
	return st.admit(v, sched.Schedule(st, v))
}

// AdmitDirect admits one stream of video v served directly by replica
// holder s, bypassing the scheduling policy — the entry point session
// failover and other recovery mechanisms use. It performs the same capacity
// checks as Admit and additionally refuses servers that hold no copy of v.
func (st *State) AdmitDirect(v, s int) (StreamID, bool) {
	if v < 0 || v >= st.p.M() || s < 0 || s >= st.p.N() {
		return 0, false
	}
	holders := st.holders[v]
	i := sort.SearchInts(holders, s)
	if i >= len(holders) || holders[i] != s {
		return 0, false
	}
	return st.admit(v, Direct(s))
}

// admit applies an accepting decision, charging resources after defensive
// capacity re-checks.
func (st *State) admit(v int, d Decision) (StreamID, bool) {
	if !d.Accept {
		return 0, false
	}
	rate := st.RateOf(v, d.Source)
	s := Stream{Video: v, Server: d.Server, Source: d.Source, Rate: rate, Redirected: d.Server != d.Source}
	// Defensive re-checks: the scheduler may promise capacity it lacks, and
	// for redirected streams the outgoing charge is the *source copy's*
	// rate on the proxy's link, which CanServe alone cannot see.
	if rate <= 0 || !st.up[d.Server] {
		return 0, false
	}
	if st.streamLimit > 0 && st.activeByServ[d.Server] >= st.streamLimit {
		return 0, false
	}
	if st.FreeBandwidth(d.Server) < rate-1e-6 {
		return 0, false
	}
	if s.Redirected && !st.up[d.Source] {
		return 0, false // the replica's server is down
	}
	if s.Redirected {
		if st.BackboneFree() < rate-1e-6 {
			return 0, false
		}
		st.backboneUsed += rate
	}
	st.usedBW[d.Server] += rate
	st.activeByServ[d.Server]++
	st.nextID++
	id := st.nextID
	st.streams.Put(id, s)
	return id, true
}

// Release ends the stream with the given handle and frees its resources.
func (st *State) Release(id StreamID) error {
	s, ok := st.streams.Get(id)
	if !ok {
		return fmt.Errorf("cluster: unknown stream %d", id)
	}
	st.streams.Delete(id)
	st.usedBW[s.Server] -= s.Rate
	if st.usedBW[s.Server] < 0 {
		st.usedBW[s.Server] = 0 // absorb floating-point dust
	}
	st.activeByServ[s.Server]--
	if s.Redirected {
		st.backboneUsed -= s.Rate
		if st.backboneUsed < 0 {
			st.backboneUsed = 0
		}
	}
	return nil
}

// Lookup returns the record of an active stream.
func (st *State) Lookup(id StreamID) (Stream, bool) {
	return st.streams.Get(id)
}

// SwapStreamTable exchanges the state's stream table with *t. It exists so
// that a caller running many short-lived States (sim.Run) can lend each one
// an empty table whose slots are already grown, and take the storage back
// when the State is done: swap an empty table in before the first admission,
// swap again after the last use of the State. It changes no behaviour, only
// where the table's memory comes from.
func (st *State) SwapStreamTable(t *StreamTable[Stream]) {
	st.streams, *t = *t, st.streams
}
