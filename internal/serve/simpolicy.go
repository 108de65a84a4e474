package serve

import (
	"fmt"
	"math"
	"sync"

	"vodcluster/internal/cluster"
	"vodcluster/internal/policy"
	"vodcluster/internal/redirect"
	"vodcluster/internal/resilience"
)

// SimPolicy drives the exact scheduling policies of the simulator — a
// cluster.Scheduler over a cluster.State, wrapped with backbone redirection
// when the problem defines internal bandwidth — behind a mutex. Decisions
// are bit-identical to sim.Run given the same request order, which is what
// the cross-validation mode leans on; the price is one lock on the admission
// path, so the ranked CAS policies remain the scaling default. The shared
// Cluster gauges are kept in step so /metrics reads the same either way.
type SimPolicy struct {
	c *Cluster

	mu    sync.Mutex
	st    *cluster.State
	sched cluster.Scheduler
	name  string
}

// NewSimPolicy builds the locked sim-parity adapter for a base scheduler
// name, resolved through the shared policy registry (any registered
// simulator policy works; the empty name takes the registry default).
// Redirection over the backbone is enabled exactly when the problem defines
// backbone bandwidth, matching the simulator pipeline's convention.
func NewSimPolicy(base string, c *Cluster) (*SimPolicy, error) {
	e, err := policy.Lookup(base)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	sched := e.NewScheduler()
	name := "sim:" + e.Name
	if c.Problem().BackboneBandwidth > 0 {
		sched = redirect.New(sched)
		name += "+redirect"
	}
	st, err := cluster.New(c.Problem(), c.Layout())
	if err != nil {
		return nil, err
	}
	return &SimPolicy{c: c, st: st, sched: sched, name: name}, nil
}

// Name implements Policy.
func (p *SimPolicy) Name() string { return p.name }

// Admit implements Policy.
func (p *SimPolicy) Admit(v int) (Grant, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := p.st.Admit(v, p.sched)
	if !ok {
		return Grant{}, false
	}
	s, _ := p.st.Lookup(id)
	g := Grant{
		Video:      v,
		Server:     s.Server,
		Source:     s.Source,
		Rate:       int64(math.Ceil(s.Rate)),
		Redirected: s.Redirected,
		simID:      int64(id),
	}
	p.c.ForceCharge(g.Server, g.Rate)
	if g.Redirected {
		p.c.ForceChargeBackbone(g.Rate)
	}
	return g, true
}

// Release implements Policy. A grant whose underlying stream was already
// torn down by DrainBackend only returns the gauge charge.
func (p *SimPolicy) Release(g Grant) {
	p.mu.Lock()
	_ = p.st.Release(cluster.StreamID(g.simID)) // already-torn streams are expected
	p.mu.Unlock()
	p.c.Release(g.Server, g.Rate)
	if g.Redirected {
		p.c.ReleaseBackbone(g.Rate)
	}
}

// Failover implements Policy via resilience.TryFailover on the locked state.
// The excluded (draining) server is already down in the state, so the
// resilience candidate scan cannot pick it.
func (p *SimPolicy) Failover(v, exclude int) (Grant, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, ok := resilience.TryFailover(p.st, v, 1)
	if !ok {
		return Grant{}, false
	}
	s, _ := p.st.Lookup(id)
	g := Grant{
		Video:  v,
		Server: s.Server,
		Source: s.Source,
		Rate:   int64(math.Ceil(s.Rate)),
		simID:  int64(id),
	}
	p.c.ForceCharge(g.Server, g.Rate)
	return g, true
}

// DrainBackend mirrors a backend drain into the locked state: the server is
// failed (its streams torn down, its replicas unreachable) so subsequent
// decisions avoid it. The serve engine releases the affected grants and
// drives failover; the state-side teardown happened here.
func (p *SimPolicy) DrainBackend(s int) {
	p.mu.Lock()
	p.st.FailServer(s)
	p.mu.Unlock()
}

// RestoreBackend brings a drained backend back in the locked state.
func (p *SimPolicy) RestoreBackend(s int) {
	p.mu.Lock()
	p.st.RestoreServer(s)
	p.mu.Unlock()
}

// FailBackend mirrors a backend crash into the locked state. It is the same
// mirror as a drain: the simulator models both as a failed server whose
// streams are torn and whose replicas are unreachable.
func (p *SimPolicy) FailBackend(s int) { p.DrainBackend(s) }

// RecoverBackend mirrors a crash recovery into the locked state.
func (p *SimPolicy) RecoverBackend(s int) { p.RestoreBackend(s) }

// AddReplica mirrors a repair copy landing into the locked state, so
// subsequent sim-parity decisions see the restored replica exactly as the
// simulator's repairer would have placed it.
func (p *SimPolicy) AddReplica(v, s int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st.AddReplica(v, s)
}

// RemoveReplica mirrors a rebalance eviction into the locked state. The
// state-side EvictReplica re-checks pinned streams and the last-copy rule —
// defense in depth behind the serve-layer checks.
func (p *SimPolicy) RemoveReplica(v, s int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st.EvictReplica(v, s)
}

var _ Policy = (*SimPolicy)(nil)
