package cluster

import (
	"fmt"
	"sort"
)

// Runtime layout mutation: the operations dynamic replication (paper §4.1.2
// "the replication algorithms can be applied for dynamic replication during
// run-time") needs to add and remove replicas while streams are in flight.
// Active streams are never disturbed — removing a replica only stops future
// requests from being scheduled onto it.

// StorageUsed returns the bytes of content stored on server s.
func (st *State) StorageUsed(s int) float64 { return st.storageUsed[s] }

// StorageFree returns the remaining content storage of server s.
func (st *State) StorageFree(s int) float64 {
	return st.p.StorageOf(s) - st.storageUsed[s]
}

// Readable reports whether server s's data can be read — whether it is up:
// the simulator's failure model has no state in which a server's copies
// stay readable while it refuses streams.
func (st *State) Readable(s int) bool { return st.up[s] }

// CopySize returns the bytes of video v's copy on server s: the catalog
// size, or rate·duration/8 at the copy's own rate under WithCopyRates.
func (st *State) CopySize(v, s int) float64 {
	if st.copyRates != nil {
		return st.RateOf(v, s) * st.p.Catalog[v].Duration / 8
	}
	return st.p.Catalog[v].SizeBytes()
}

// Replicas returns the current number of replicas of video v.
func (st *State) Replicas(v int) int { return len(st.holders[v]) }

// AddReplica places a new replica of video v on server s at runtime. The
// server must be up, must not already hold the video, and must have storage
// room. The cursor arithmetic of the static round-robin scheduler adapts
// automatically to the longer holder list. States running WithCopyRates
// must use AddReplicaRate so the new copy gets an encoding rate.
func (st *State) AddReplica(v, s int) error {
	if st.copyRates != nil {
		return fmt.Errorf("cluster: per-copy rates configured; use AddReplicaRate")
	}
	return st.addReplica(v, s, 0)
}

// AddReplicaRate places a new replica of video v on server s with an
// explicit encoding rate in bits/s — the WithCopyRates counterpart of
// AddReplica, charging rate·duration/8 bytes of storage for the new copy.
func (st *State) AddReplicaRate(v, s int, rate float64) error {
	if st.copyRates == nil {
		return fmt.Errorf("cluster: no per-copy rates configured; use AddReplica")
	}
	if rate <= 0 {
		return fmt.Errorf("cluster: copy rate must be positive, got %g", rate)
	}
	return st.addReplica(v, s, rate)
}

func (st *State) addReplica(v, s int, rate float64) error {
	if v < 0 || v >= st.p.M() {
		return fmt.Errorf("cluster: no video %d", v)
	}
	if s < 0 || s >= st.p.N() {
		return fmt.Errorf("cluster: no server %d", s)
	}
	if !st.up[s] {
		return fmt.Errorf("cluster: server %d is down", s)
	}
	holders := st.holders[v]
	i := sort.SearchInts(holders, s)
	if i < len(holders) && holders[i] == s {
		return fmt.Errorf("cluster: server %d already holds video %d", s, v)
	}
	size := st.p.Catalog[v].SizeBytes()
	if rate > 0 {
		size = rate * st.p.Catalog[v].Duration / 8
	}
	if st.StorageFree(s) < size-1e-6 {
		return fmt.Errorf("cluster: server %d lacks %g bytes for video %d", s, size, v)
	}
	holders = append(holders, 0)
	copy(holders[i+1:], holders[i:])
	holders[i] = s
	st.holders[v] = holders
	st.storageUsed[s] += size
	if st.copyRates != nil {
		st.copyRates[v][s] = rate
	}
	return nil
}

// RemoveReplica evicts the replica of video v from server s. The video's
// last replica can never be removed (constraint Eq. 7 keeps every video
// present). Streams currently served from s continue; only future
// scheduling is affected.
func (st *State) RemoveReplica(v, s int) error {
	if v < 0 || v >= st.p.M() {
		return fmt.Errorf("cluster: no video %d", v)
	}
	holders := st.holders[v]
	i := sort.SearchInts(holders, s)
	if i >= len(holders) || holders[i] != s {
		return fmt.Errorf("cluster: server %d does not hold video %d", s, v)
	}
	if len(holders) == 1 {
		return fmt.Errorf("cluster: refusing to remove the last replica of video %d", v)
	}
	st.holders[v] = append(holders[:i], holders[i+1:]...)
	size := st.p.Catalog[v].SizeBytes()
	if st.copyRates != nil {
		// Per-copy rates charge rate·duration/8 per copy; refund the same.
		size = st.copyRates[v][s] * st.p.Catalog[v].Duration / 8
		st.copyRates[v][s] = 0
	}
	st.storageUsed[s] -= size
	if st.storageUsed[s] < 0 {
		st.storageUsed[s] = 0
	}
	return nil
}

// PinnedStreams counts active streams pinned to video v's replica on server
// s: streams of v carried by s's outgoing link, plus redirected streams of v
// sourced from s's copy. A replica with pinned streams must not be evicted —
// the copy is feeding live sessions.
func (st *State) PinnedStreams(v, s int) int {
	n := 0
	st.streams.Each(func(_ StreamID, stream Stream) {
		if stream.Video == v && (stream.Server == s || stream.Source == s) {
			n++
		}
	})
	return n
}

// EvictReplica removes the replica of video v from server s only when no
// active stream is pinned to it — the rebalancer's safe eviction, as opposed
// to RemoveReplica, which merely stops future scheduling. The last replica
// of a video can never be evicted.
func (st *State) EvictReplica(v, s int) error {
	if v < 0 || v >= st.p.M() {
		return fmt.Errorf("cluster: no video %d", v)
	}
	if n := st.PinnedStreams(v, s); n > 0 {
		return fmt.Errorf("cluster: video %d on server %d has %d pinned streams", v, s, n)
	}
	return st.RemoveReplica(v, s)
}

// ReserveBackbone claims bps of internal backbone bandwidth (e.g. for a
// replica migration) and reports whether it fit.
func (st *State) ReserveBackbone(bps float64) bool {
	if bps <= 0 {
		return false
	}
	if st.BackboneFree() < bps-1e-6 {
		return false
	}
	st.backboneUsed += bps
	return true
}

// ReleaseBackbone returns previously reserved backbone bandwidth.
func (st *State) ReleaseBackbone(bps float64) {
	st.backboneUsed -= bps
	if st.backboneUsed < 0 {
		st.backboneUsed = 0
	}
}

// ReserveOutgoing claims bps of server s's outgoing bandwidth for a
// non-stream load — e.g. sourcing a re-replication copy on a cluster with
// no internal backbone — and reports whether it fit. The reservation is
// visible to admission control and load sampling like any stream's usage.
func (st *State) ReserveOutgoing(s int, bps float64) bool {
	if s < 0 || s >= st.p.N() || bps <= 0 || !st.up[s] {
		return false
	}
	if st.FreeBandwidth(s) < bps-1e-6 {
		return false
	}
	st.usedBW[s] += bps
	return true
}

// ReleaseOutgoing returns outgoing bandwidth claimed with ReserveOutgoing.
func (st *State) ReleaseOutgoing(s int, bps float64) {
	if s < 0 || s >= st.p.N() || bps <= 0 {
		return
	}
	st.usedBW[s] -= bps
	if st.usedBW[s] < 0 {
		st.usedBW[s] = 0
	}
}
