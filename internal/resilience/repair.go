package resilience

import (
	"fmt"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
)

// Cluster is what the repair rule reads and books: the scheduling view plus
// whether a server's data can be read, its free storage, the size of a copy,
// and the bandwidth reservations a copy holds while it transfers.
// *cluster.State (the simulator) and *serve.Cluster (the daemon) implement
// it.
type Cluster interface {
	cluster.View
	// Readable reports whether server s's data can still be read: up in
	// the simulator, not down in the daemon (a draining backend can still
	// source a copy).
	Readable(s int) bool
	// StorageFree returns server s's unused content storage, bytes.
	StorageFree(s int) float64
	// CopySize returns the size in bytes of video v's copy on server s.
	CopySize(v, s int) float64
	// ReserveBackbone and ReserveOutgoing claim bps of backbone or of
	// server s's outgoing link for a copy and report whether it fit; the
	// Release pair gives the claim back.
	ReserveBackbone(bps float64) bool
	ReleaseBackbone(bps float64)
	ReserveOutgoing(s int, bps float64) bool
	ReleaseOutgoing(s int, bps float64)
}

// Copy is one repair copy in flight: video Video from Src onto Dst, Size
// bytes, taking Seconds of virtual time at the policy's RepairRate.
type Copy struct {
	Video, Src, Dst int
	Size            float64
	Seconds         float64
}

// Repairer is the re-replication rule, written once and clock-free: Scan
// finds videos whose live replica count fell below Policy.RepairMinLive —
// typically after a server failure — and starts copies onto the
// least-loaded eligible server, and Land settles a copy once its transfer
// time has passed. Waiting that time out stays with the caller: the
// simulator's event queue, through Tick, or the daemon's timers. Copy
// bandwidth is a temporary load the way internal/dynrep models migrations:
// one copy reserves Policy.RepairRate bits/s on the cluster backbone when
// the problem defines one, otherwise on the source's outgoing link, for
// size·8/rate seconds. In the simulator a Repairer is a runtime controller
// (it satisfies sim.Controller structurally, like internal/dynrep's
// Manager). Repairer is not safe for concurrent use; create one per run.
type Repairer struct {
	pol      Policy
	videos   int
	backbone bool // copies cross the backbone, not the source's link

	inflight map[int]bool // videos with a copy in flight
	rate     float64      // bits/s of copies in flight
	peak     float64      // high-water rate

	started   int
	completed int
	aborted   int
	skipped   int
}

// NewRepairer builds the repair rule for problem p. The policy must
// already be defaulted.
func NewRepairer(p *core.Problem, pol Policy) (*Repairer, error) {
	if p == nil {
		return nil, fmt.Errorf("resilience: nil problem")
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Repairer{pol: pol, videos: p.M(), backbone: p.BackboneBandwidth > 0, inflight: make(map[int]bool)}, nil
}

// Started returns the number of repair copies begun.
func (r *Repairer) Started() int { return r.started }

// Completed returns the number of repair copies that landed as replicas.
func (r *Repairer) Completed() int { return r.completed }

// Aborted returns copies dropped unlanded: an endpoint died mid-copy, the
// destination filled up or gained the video meanwhile, or the caller
// cancelled the copy.
func (r *Repairer) Aborted() int { return r.aborted }

// Skipped returns repair opportunities abandoned for lack of a source, a
// destination with storage room, bandwidth, or budget.
func (r *Repairer) Skipped() int { return r.skipped }

// Inflight returns the number of copies in flight.
func (r *Repairer) Inflight() int { return len(r.inflight) }

// PeakRate returns the high-water mark of concurrent copy bandwidth,
// bits/s — what Policy.RepairBudget bounds when set.
func (r *Repairer) PeakRate() float64 { return r.peak }

// Scan walks the catalog hottest first (the lowest rank: the catalog is
// popularity-ordered) and starts up to RepairMaxPerTick copies for videos
// with no copy in flight whose live replica count is below
// min(RepairMinLive, placed replicas) — so failures trigger repair but
// thinly-replicated videos on a healthy cluster do not. It appends the
// copies it started to dst.
func (r *Repairer) Scan(w Cluster, dst []Copy) []Copy {
	started := 0
	for v := 0; v < r.videos && started < r.pol.RepairMaxPerTick; v++ {
		if r.inflight[v] {
			continue
		}
		holders := w.Holders(v)
		live := 0
		for _, s := range holders {
			if w.Readable(s) {
				live++
			}
		}
		if live >= min(r.pol.RepairMinLive, len(holders)) {
			continue
		}
		if c, ok := r.start(w, v); ok {
			dst = append(dst, c)
			started++
		} else {
			r.skipped++
		}
	}
	return dst
}

// start begins re-replicating v: the source is the readable holder with the
// most free bandwidth, the destination the eligible non-holder with storage
// room for the source's copy and the most free bandwidth (ties to the
// earlier server on both ends). It reports whether a copy is in flight.
func (r *Repairer) start(w Cluster, v int) (Copy, bool) {
	src, srcFree := -1, 0.0
	for _, s := range w.Holders(v) {
		if !w.Readable(s) {
			continue
		}
		if free := w.FreeBandwidth(s); src == -1 || free > srcFree {
			src, srcFree = s, free
		}
	}
	if src == -1 {
		return Copy{}, false // every replica is down: nothing to copy from
	}
	size := w.CopySize(v, src)
	dst, dstFree := -1, 0.0
	for s := 0; s < w.Servers(); s++ {
		if !w.Eligible(s) || s == src || holds(w, v, s) || w.StorageFree(s) < size-1e-6 {
			continue
		}
		if free := w.FreeBandwidth(s); dst == -1 || free > dstFree {
			dst, dstFree = s, free
		}
	}
	if dst == -1 {
		return Copy{}, false
	}
	rate := r.pol.RepairRate
	if b := r.pol.RepairBudget; b > 0 && r.rate+rate > b+1e-6 {
		return Copy{}, false
	}
	if r.backbone {
		if !w.ReserveBackbone(rate) {
			return Copy{}, false
		}
	} else if !w.ReserveOutgoing(src, rate) {
		return Copy{}, false
	}
	r.inflight[v] = true
	r.rate += rate
	r.peak = max(r.peak, r.rate)
	r.started++
	return Copy{Video: v, Src: src, Dst: dst, Size: size, Seconds: size * 8 / rate}, true
}

// Land settles copy c once its transfer time has passed: it gives back the
// copy's bandwidth and applies the landing rule. The copy aborts when its
// source or destination can no longer be read, when the destination already
// holds the video, or when the destination lacks storage for it; otherwise
// add publishes the replica, and its error aborts the copy too. Land
// returns the reason the copy aborted, or "" when it landed.
func (r *Repairer) Land(w Cluster, c Copy, add func() error) string {
	r.finish(w, c)
	reason := ""
	switch {
	case !w.Readable(c.Src):
		reason = "source died mid-copy"
	case !w.Readable(c.Dst):
		reason = "destination died mid-copy"
	case holds(w, c.Video, c.Dst):
		reason = "destination already holds a replica"
	case w.StorageFree(c.Dst) < c.Size-1e-6:
		reason = "destination lacks storage"
	default:
		if err := add(); err != nil {
			reason = err.Error()
		}
	}
	if reason != "" {
		r.aborted++
		return reason
	}
	r.completed++
	return ""
}

// Cancel drops copy c unfinished — its caller is shutting down — giving
// back its bandwidth.
func (r *Repairer) Cancel(w Cluster, c Copy) {
	r.finish(w, c)
	r.aborted++
}

// finish returns copy c's bandwidth and clears its in-flight mark.
func (r *Repairer) finish(w Cluster, c Copy) {
	rate := r.pol.RepairRate
	if r.backbone {
		w.ReleaseBackbone(rate)
	} else {
		w.ReleaseOutgoing(c.Src, rate)
	}
	delete(r.inflight, c.Video)
	r.rate -= rate
}

// Observe implements the controller hook; repair ignores the request stream.
func (r *Repairer) Observe(int) {}

// Interval implements the controller hook.
func (r *Repairer) Interval() float64 { return r.pol.RepairInterval }

// Tick implements the controller hook: one Scan, each started copy landing
// through Landing once its transfer time has passed.
func (r *Repairer) Tick(_ float64, st *cluster.State, schedule func(delay float64, fn func(now float64))) {
	for _, c := range r.Scan(st, nil) {
		schedule(c.Seconds, r.Landing(st, c))
	}
}

// Landing returns the event that lands copy c on st. The new replica
// inherits the source copy's rate as it stood when the copy started.
func (r *Repairer) Landing(st *cluster.State, c Copy) func(now float64) {
	rate := st.RateOf(c.Video, c.Src)
	return func(float64) {
		r.Land(st, c, func() error {
			if st.HasCopyRates() {
				return st.AddReplicaRate(c.Video, c.Dst, rate)
			}
			return st.AddReplica(c.Video, c.Dst)
		})
	}
}

// holds reports whether server s currently holds a replica of v.
func holds(w cluster.View, v, s int) bool {
	for _, h := range w.Holders(v) {
		if h == s {
			return true
		}
	}
	return false
}
