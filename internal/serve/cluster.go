package serve

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"vodcluster/internal/core"
)

// BackendState is the health/availability state of one backend server. The
// live failure-handling state machine is
//
//	up ⇄ suspect → down → recovering → up
//	up ⇄ draining            (operator-driven, orthogonal to health)
//
// Up, Suspect, and Recovering backends accept new stream placements; a
// Suspect backend is one the health checker has seen fail probes but not yet
// confirmed dead (flap damping), and a Recovering backend is back from a
// failure but not yet trusted at full confidence. Draining and Down backends
// refuse new placements; the difference is that a Draining backend's
// replicas are still readable (cooperative maintenance) while a Down
// backend's replicas are unreachable and count against live replication —
// which is what triggers re-replication repair.
type BackendState int32

// Backend states. The zero value is BackendUp so a fresh cluster serves.
const (
	BackendUp BackendState = iota
	BackendSuspect
	BackendRecovering
	BackendDraining
	BackendDown
)

var backendStateNames = [...]string{
	BackendUp:         "up",
	BackendSuspect:    "suspect",
	BackendRecovering: "recovering",
	BackendDraining:   "draining",
	BackendDown:       "down",
}

// String returns the state's wire name.
func (s BackendState) String() string {
	if int(s) < len(backendStateNames) {
		return backendStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Eligible reports whether a backend in this state accepts new placements.
func (s BackendState) Eligible() bool {
	return s == BackendUp || s == BackendSuspect || s == BackendRecovering
}

// Cluster is the concurrent runtime counterpart of cluster.State: per-server
// outgoing-bandwidth accounting done with atomic compare-and-swap so the
// admission hot path never takes a lock. Bandwidth is tracked in integer
// bits/s (encoding rates round up, so accounting errs on the conservative
// side), and a reservation is the capacity check — TryReserve either charges
// the stream's rate atomically or reports that the link is full, so
// concurrent admissions can never oversubscribe a server.
type Cluster struct {
	p      *core.Problem
	layout *core.Layout

	holders []atomic.Pointer[[]int] // video -> sorted servers holding it
	rate    []int64                 // video -> encoding rate, bits/s, rounded up

	capBps []int64         // per-server outgoing capacity, bits/s
	used   []atomic.Int64  // per-server outgoing bits/s in use
	active []atomic.Int64  // per-server active streams
	state  []atomic.Int32  // per-server BackendState
	stored []atomic.Uint64 // per-server bytes of held replicas, float64 bits

	backboneCap  int64
	backboneUsed atomic.Int64

	layoutVersion atomic.Int64 // bumped on every holder-list change
}

// NewCluster validates the layout against the problem and builds the
// concurrent accounting state. The daemon serves every copy at its catalog
// rate, so it refuses a layout with per-copy rates.
func NewCluster(p *core.Problem, layout *core.Layout) (*Cluster, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := layout.Validate(p); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if layout.Rates != nil {
		return nil, fmt.Errorf("serve: the daemon does not serve per-copy rates yet; the layout must leave Rates nil")
	}
	c := &Cluster{
		p:           p,
		layout:      layout,
		holders:     make([]atomic.Pointer[[]int], p.M()),
		rate:        make([]int64, p.M()),
		capBps:      make([]int64, p.N()),
		used:        make([]atomic.Int64, p.N()),
		active:      make([]atomic.Int64, p.N()),
		state:       make([]atomic.Int32, p.N()),
		stored:      make([]atomic.Uint64, p.N()),
		backboneCap: int64(p.BackboneBandwidth),
	}
	for v := range c.holders {
		hs := append([]int(nil), layout.Servers[v]...)
		c.holders[v].Store(&hs)
		c.rate[v] = int64(math.Ceil(p.Catalog[v].BitRate))
	}
	for s, used := range layout.ServerStorageUsed(p) {
		c.capBps[s] = int64(p.BandwidthOf(s))
		c.stored[s].Store(math.Float64bits(used))
	}
	c.layoutVersion.Store(1) // the seeded layout is version 1
	return c, nil
}

// Problem returns the problem the cluster was built for.
func (c *Cluster) Problem() *core.Problem { return c.p }

// Layout returns the layout the cluster was built for. Replicas added at
// runtime by the repairer live in the cluster's holder lists, not here.
func (c *Cluster) Layout() *core.Layout { return c.layout }

// Holders returns the servers holding video v (shared slice; do not modify).
func (c *Cluster) Holders(v int) []int { return *c.holders[v].Load() }

// AddHolder registers a new replica of video v on server s at runtime — the
// repair path landing a re-replicated copy. The holder list is republished
// atomically so concurrent admissions always see a consistent sorted slice.
// It reports false when s already held a copy.
func (c *Cluster) AddHolder(v, s int) bool {
	for {
		old := c.holders[v].Load()
		for _, h := range *old {
			if h == s {
				return false
			}
		}
		hs := append(append([]int(nil), *old...), s)
		sort.Ints(hs)
		if c.holders[v].CompareAndSwap(old, &hs) {
			c.addStored(s, c.p.Catalog[v].SizeBytes())
			c.layoutVersion.Add(1)
			return true
		}
	}
}

// RemoveHolder deregisters video v's replica on server s at runtime — the
// rebalancer's eviction landing. The shrunken holder list is republished
// atomically, like AddHolder's growth. It reports false when s holds no copy
// or when the copy is the video's last: the directory never goes empty, so
// scheduling always has at least one candidate (constraint Eq. 7).
func (c *Cluster) RemoveHolder(v, s int) bool {
	for {
		old := c.holders[v].Load()
		i := -1
		for j, h := range *old {
			if h == s {
				i = j
				break
			}
		}
		if i < 0 || len(*old) <= 1 {
			return false
		}
		hs := append([]int(nil), (*old)[:i]...)
		hs = append(hs, (*old)[i+1:]...)
		if c.holders[v].CompareAndSwap(old, &hs) {
			c.addStored(s, -c.p.Catalog[v].SizeBytes())
			c.layoutVersion.Add(1)
			return true
		}
	}
}

// addStored adds delta bytes to server s's stored-replica count.
func (c *Cluster) addStored(s int, delta float64) {
	for {
		old := c.stored[s].Load()
		if c.stored[s].CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// StorageFree returns server s's content storage not taken by the replicas
// it holds, seeded ones and those AddHolder landed since, in bytes. Nothing
// here refuses a landing that would take it below zero: the repair rule
// checks it before landing, the rebalancer before copying.
func (c *Cluster) StorageFree(s int) float64 {
	return c.p.StorageOf(s) - math.Float64frombits(c.stored[s].Load())
}

// CopySize returns the bytes of video v's copy: its catalog size, on every
// server.
func (c *Cluster) CopySize(v, _ int) float64 { return c.p.Catalog[v].SizeBytes() }

// LayoutVersion returns the monotone layout version: 1 for the seeded
// layout, bumped on every holder-list change (repair copies, rebalance
// migrations, evictions). Clients diffing GET /layout poll it to detect
// placement churn cheaply.
func (c *Cluster) LayoutVersion() int64 { return c.layoutVersion.Load() }

// TotalReplicatedBytes sums the storage footprint of every replica currently
// in the directory.
func (c *Cluster) TotalReplicatedBytes() float64 {
	total := 0.0
	for v := range c.holders {
		total += float64(len(c.Holders(v))) * c.p.Catalog[v].SizeBytes()
	}
	return total
}

// LiveReplicas counts the replicas of v on readable backends — the
// quantity the repairer compares against its replication threshold.
func (c *Cluster) LiveReplicas(v int) int {
	n := 0
	for _, s := range c.Holders(v) {
		if c.Readable(s) {
			n++
		}
	}
	return n
}

// Readable reports whether backend s's replicas can be read: it is not
// Down. A draining backend refuses streams but can still source a copy.
func (c *Cluster) Readable(s int) bool { return c.State(s) != BackendDown }

// Rate returns video v's encoding rate in bits/s.
func (c *Cluster) Rate(v int) int64 { return c.rate[v] }

// Servers returns the number of servers.
func (c *Cluster) Servers() int { return len(c.capBps) }

// Videos returns the catalog size.
func (c *Cluster) Videos() int { return len(c.holders) }

// Capacity returns server s's outgoing capacity in bits/s.
func (c *Cluster) Capacity(s int) int64 { return c.capBps[s] }

// Used returns server s's outgoing bandwidth in use, bits/s.
func (c *Cluster) Used(s int) int64 { return c.used[s].Load() }

// Free returns server s's unused outgoing bandwidth, bits/s.
func (c *Cluster) Free(s int) int64 { return c.capBps[s] - c.used[s].Load() }

// Active returns the number of active streams on server s's outgoing link.
func (c *Cluster) Active(s int) int64 { return c.active[s].Load() }

// State returns server s's backend state.
func (c *Cluster) State(s int) BackendState { return BackendState(c.state[s].Load()) }

// SetState stores server s's backend state unconditionally.
func (c *Cluster) SetState(s int, st BackendState) { c.state[s].Store(int32(st)) }

// CASState transitions server s from one state to another atomically; it
// reports whether the transition won. State-machine drivers (failure
// injection, the health checker) use this so exactly one caller owns each
// transition even when they race.
func (c *Cluster) CASState(s int, from, to BackendState) bool {
	return c.state[s].CompareAndSwap(int32(from), int32(to))
}

// Eligible reports whether server s accepts new stream placements.
func (c *Cluster) Eligible(s int) bool { return c.State(s).Eligible() }

// FreeBandwidth implements cluster.View: Free as a float64, exact below
// 2^53 bits/s.
func (c *Cluster) FreeBandwidth(s int) float64 { return float64(c.Free(s)) }

// CanServe implements cluster.View: server s accepts new placements and has
// room for one more stream of v.
func (c *Cluster) CanServe(s, v int) bool { return c.Eligible(s) && c.Free(s) >= c.rate[v] }

// BackboneUsed returns the backbone bandwidth in use, bits/s.
func (c *Cluster) BackboneUsed() int64 { return c.backboneUsed.Load() }

// BackboneFree implements cluster.View: the unused backbone bandwidth as a
// float64.
func (c *Cluster) BackboneFree() float64 { return float64(c.backboneCap - c.backboneUsed.Load()) }

// TryReserve atomically charges rate bits/s to server s's outgoing link. It
// fails when the server is ineligible (draining or down) or lacks headroom.
// The CAS loop makes the capacity check and the charge one atomic step: two
// racing admissions can both pass a read-then-check, but only one CAS wins
// and the loser re-reads the new load.
func (c *Cluster) TryReserve(s int, rate int64) bool {
	if !c.Eligible(s) {
		return false
	}
	for {
		u := c.used[s].Load()
		if u+rate > c.capBps[s] {
			return false
		}
		if c.used[s].CompareAndSwap(u, u+rate) {
			c.active[s].Add(1)
			return true
		}
	}
}

// ReserveOutgoing charges ⌈bps⌉ bits/s to server s's outgoing link without
// counting an active stream — a copy occupying the link without being a
// viewer session. Unlike TryReserve it only requires the server to be
// Readable, so a draining source can still feed a copy.
func (c *Cluster) ReserveOutgoing(s int, bps float64) bool {
	if !c.Readable(s) {
		return false
	}
	rate := int64(math.Ceil(bps))
	for {
		u := c.used[s].Load()
		if u+rate > c.capBps[s] {
			return false
		}
		if c.used[s].CompareAndSwap(u, u+rate) {
			return true
		}
	}
}

// ReleaseOutgoing frees a ReserveOutgoing charge.
func (c *Cluster) ReleaseOutgoing(s int, bps float64) { c.used[s].Add(-int64(math.Ceil(bps))) }

// Release frees a reservation made by TryReserve.
func (c *Cluster) Release(s int, rate int64) {
	c.used[s].Add(-rate)
	c.active[s].Add(-1)
}

// ReserveBackbone charges ⌈bps⌉ bits/s to the internal backbone for a copy
// and reports whether it fit.
func (c *Cluster) ReserveBackbone(bps float64) bool { return c.reserveBackbone(int64(math.Ceil(bps))) }

// ReleaseBackbone frees a ReserveBackbone charge.
func (c *Cluster) ReleaseBackbone(bps float64) { c.releaseBackbone(int64(math.Ceil(bps))) }

// reserveBackbone atomically charges rate to the internal backbone.
func (c *Cluster) reserveBackbone(rate int64) bool {
	for {
		u := c.backboneUsed.Load()
		if u+rate > c.backboneCap {
			return false
		}
		if c.backboneUsed.CompareAndSwap(u, u+rate) {
			return true
		}
	}
}

// releaseBackbone frees a backbone reservation.
func (c *Cluster) releaseBackbone(rate int64) { c.backboneUsed.Add(-rate) }
