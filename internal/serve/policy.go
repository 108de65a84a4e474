package serve

import (
	"sync"
	"sync/atomic"

	"vodcluster/internal/cluster"
	"vodcluster/internal/policy"
	"vodcluster/internal/stats"
)

// Grant is one admitted stream's reservation: which server's outgoing link
// carries it, which replica feeds it, and the charged rate. Policies create
// grants (charging the Cluster as part of admission) and release them.
type Grant struct {
	Video      int
	Server     int
	Source     int
	Rate       int64 // bits/s charged to Server's outgoing link
	Redirected bool  // the stream crosses the backbone from Source to Server
}

// Policy decides and books admissions against the shared Cluster. Admit
// must be safe for concurrent use; on success the grant's resources are
// already charged and Release must eventually return them.
type Policy interface {
	// Name identifies the policy in /metrics and reports.
	Name() string
	// Admit attempts to admit one stream of video v.
	Admit(v int) (Grant, bool)
	// Release frees an admitted grant's resources.
	Release(g Grant)
	// Failover re-admits a stream of video v onto a replica holder other
	// than exclude, for sessions interrupted by a backend drain. The floor
	// semantics match resilience.TryFailover under the fixed-rate model.
	Failover(v, exclude int) (Grant, bool)
}

// DefaultPolicy is the admission policy an empty Config.Policy selects.
const DefaultPolicy = "least-loaded"

// NewPolicy resolves a registered policy name against a cluster: that
// policy's rank (cluster.Ranker) booked with an atomic reservation, plus
// backbone redirection exactly when the problem defines backbone bandwidth,
// as in the simulator pipeline. The empty name selects DefaultPolicy.
// Unknown names report the registry's full name table.
func NewPolicy(name string, c *Cluster) (Policy, error) {
	if name == "" {
		name = DefaultPolicy
	}
	e, err := policy.Lookup(name)
	if err != nil {
		return nil, err
	}
	p := &rankPolicy{c: c, name: e.Name, rank: e.Rank, draw: &lockedDraw{rng: cluster.RandomStream(0)}}
	if e.Rank.Rotates() {
		p.cursor = make([]atomic.Int64, c.Videos())
	}
	if c.Problem().BackboneBandwidth > 0 {
		p.redirect = true
		p.name += "+redirect"
	}
	return p, nil
}

// rankPolicy runs a registered rank against the shared Cluster. The rank
// picks a server from the current loads, and TryReserve books it with a
// CAS; a reservation that loses the race to a concurrent admission ranks
// again under the new loads. A pick that cannot take the stream falls back
// on cluster.Redirect when the problem has a backbone. Failover is the
// least-loaded rank with the drained server excluded, whatever the
// admission policy.
type rankPolicy struct {
	c        *Cluster
	name     string
	rank     cluster.Ranker
	cursor   []atomic.Int64 // per-video rotation position, rotating ranks only
	draw     cluster.Draw
	redirect bool // the problem has a backbone
}

func (p *rankPolicy) Name() string { return p.name }

func (p *rankPolicy) Admit(v int) (Grant, bool) {
	k := 0
	if p.cursor != nil {
		// Every request advances the cursor exactly once, accepted or not,
		// preserving the fixed rotation under concurrency.
		k = int(p.cursor[v].Add(1) - 1)
	}
	for {
		g, ok, again := p.reserve(v, p.rank.Rank(p.c, v, k, p.draw))
		if !ok && !again && p.redirect {
			g, ok, again = p.redirectOne(v)
		}
		if !again {
			return g, ok
		}
	}
}

func (p *rankPolicy) Release(g Grant) {
	p.c.Release(g.Server, g.Rate)
	if g.Redirected {
		p.c.releaseBackbone(g.Rate)
	}
}

func (p *rankPolicy) Failover(v, exclude int) (Grant, bool) {
	for {
		if g, ok, again := p.reserve(v, cluster.MostFree(p.c, v, exclude)); !again {
			return g, ok
		}
	}
}

// reserve books one stream of v on the rank's pick s. again reports a lost
// race: s could serve v when ranked, but a concurrent admission took the
// room first, so the caller ranks again.
func (p *rankPolicy) reserve(v, s int) (g Grant, ok, again bool) {
	if s < 0 || !p.c.CanServe(s, v) {
		return Grant{}, false, false
	}
	rate := p.c.Rate(v)
	if !p.c.TryReserve(s, rate) {
		return Grant{}, false, true
	}
	return Grant{Video: v, Server: s, Source: s, Rate: rate}, true, false
}

// redirectOne books cluster.Redirect's pick for v: the server's link, then
// the backbone when the stream crosses it. again reports a lost race, as in
// reserve; a backbone race gives the server's reservation back first.
func (p *rankPolicy) redirectOne(v int) (g Grant, ok, again bool) {
	rate := p.c.Rate(v)
	s, src := cluster.Redirect(p.c, v, float64(rate))
	if s < 0 {
		return Grant{}, false, false
	}
	if !p.c.TryReserve(s, rate) {
		return Grant{}, false, true
	}
	g = Grant{Video: v, Server: s, Source: src, Rate: rate, Redirected: s != src}
	if g.Redirected && !p.c.reserveBackbone(rate) {
		p.c.Release(s, rate)
		return Grant{}, false, true
	}
	return g, true, false
}

// lockedDraw serializes a randomized rank's draws from one stream.
type lockedDraw struct {
	mu  sync.Mutex
	rng *stats.RNG
}

func (d *lockedDraw) Intn(n int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Intn(n)
}
