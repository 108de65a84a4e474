package resilience

import (
	"fmt"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
)

// Repairer is a runtime controller (it satisfies sim.Controller structurally,
// like internal/dynrep's Manager) that watches for videos whose live replica
// count fell below Policy.RepairMinLive — typically after a server failure —
// and re-replicates them onto the least-loaded up server. Copy bandwidth is
// modelled as a temporary load the way dynrep models migrations: one
// in-flight copy reserves Policy.RepairRate bits/s on the cluster backbone
// when the problem defines one, otherwise on the source server's outgoing
// link, for size·8/rate seconds. Repairer is not safe for concurrent use;
// create one per run.
type Repairer struct {
	p   *core.Problem
	pol Policy

	inflight map[int]bool // videos with a copy in flight

	started   int
	completed int
	aborted   int
	skipped   int
}

// NewRepairer builds a repairer for the given problem. The policy must
// already be defaulted and validated.
func NewRepairer(p *core.Problem, pol Policy) (*Repairer, error) {
	if p == nil {
		return nil, fmt.Errorf("resilience: nil problem")
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Repairer{p: p, pol: pol, inflight: make(map[int]bool)}, nil
}

// Started returns the number of repair copies begun.
func (r *Repairer) Started() int { return r.started }

// Completed returns the number of repair copies that landed as replicas.
func (r *Repairer) Completed() int { return r.completed }

// Aborted returns copies whose source died or destination filled mid-copy.
func (r *Repairer) Aborted() int { return r.aborted }

// Skipped returns repair opportunities abandoned for lack of bandwidth,
// storage, or eligible servers.
func (r *Repairer) Skipped() int { return r.skipped }

// Observe implements the controller hook; repair ignores the request stream.
func (r *Repairer) Observe(int) {}

// Interval implements the controller hook.
func (r *Repairer) Interval() float64 { return r.pol.RepairInterval }

// Tick implements the controller hook: scan for videos whose live replica
// count fell below the repair threshold (hottest — lowest rank — first,
// since the catalog is popularity-ordered) and start up to RepairMaxPerTick
// copies. The threshold for a video is min(RepairMinLive, its placed
// replica count), so failures trigger repair but thinly-replicated videos
// on a healthy cluster do not.
func (r *Repairer) Tick(now float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	started := 0
	for v := 0; v < r.p.M() && started < r.pol.RepairMaxPerTick; v++ {
		if r.inflight[v] {
			continue
		}
		threshold := r.pol.RepairMinLive
		if placed := st.Replicas(v); placed < threshold {
			threshold = placed
		}
		if r.liveReplicas(st, v) >= threshold {
			continue
		}
		if r.startCopy(v, st, schedule) {
			started++
		} else {
			r.skipped++
		}
	}
}

// liveReplicas counts the replicas of v sitting on up servers.
func (r *Repairer) liveReplicas(st *cluster.State, v int) int {
	n := 0
	for _, s := range st.Holders(v) {
		if st.Eligible(s) {
			n++
		}
	}
	return n
}

// startCopy begins re-replicating v from its best surviving holder onto the
// least-loaded eligible server; it reports whether a copy is in flight.
func (r *Repairer) startCopy(v int, st *cluster.State, schedule func(delay float64, fn func(now float64))) bool {
	src := -1
	srcFree := 0.0
	for _, s := range st.Holders(v) {
		if !st.Eligible(s) {
			continue
		}
		if free := st.FreeBandwidth(s); src == -1 || free > srcFree {
			src, srcFree = s, free
		}
	}
	if src == -1 {
		return false // every replica is down: nothing to copy from
	}
	rate := st.RateOf(v, src) // the new copy inherits the source's quality
	size := r.p.Catalog[v].SizeBytes()
	if st.HasCopyRates() {
		size = rate * r.p.Catalog[v].Duration / 8
	}
	dst := -1
	dstFree := 0.0
	for s := 0; s < r.p.N(); s++ {
		if !st.Eligible(s) || s == src {
			continue
		}
		if holds(st, v, s) {
			continue
		}
		if st.StorageFree(s) < size-1e-6 {
			continue
		}
		if free := st.FreeBandwidth(s); dst == -1 || free > dstFree {
			dst, dstFree = s, free
		}
	}
	if dst == -1 {
		return false
	}
	overBackbone := r.p.BackboneBandwidth > 0
	if overBackbone {
		if !st.ReserveBackbone(r.pol.RepairRate) {
			return false
		}
	} else if !st.ReserveOutgoing(src, r.pol.RepairRate) {
		return false
	}
	delay := size * 8 / r.pol.RepairRate
	r.inflight[v] = true
	r.started++
	schedule(delay, func(float64) {
		if overBackbone {
			st.ReleaseBackbone(r.pol.RepairRate)
		} else {
			st.ReleaseOutgoing(src, r.pol.RepairRate)
		}
		delete(r.inflight, v)
		// The source may have died mid-copy, or the destination may have
		// died or filled up; dropping the unfinished copy is the faithful
		// outcome then.
		if !st.Eligible(src) {
			r.aborted++
			return
		}
		var err error
		if st.HasCopyRates() {
			err = st.AddReplicaRate(v, dst, rate)
		} else {
			err = st.AddReplica(v, dst)
		}
		if err != nil {
			r.aborted++
			return
		}
		r.completed++
	})
	return true
}

// holds reports whether server s currently holds a replica of v.
func holds(st *cluster.State, v, s int) bool {
	for _, h := range st.Holders(v) {
		if h == s {
			return true
		}
	}
	return false
}
