// Package resilience turns the simulator's hard failures into graceful
// degradation. The paper motivates replication with "high availability …
// low rejection rate" (§1, §3.2) but its evaluation only injects failures;
// this package supplies the recovery side, four mechanisms deep:
//
//   - session failover: streams torn down by a server failure are re-admitted
//     onto a surviving replica of the same video instead of counting dropped;
//   - retry admission: rejected requests wait in a bounded virtual-time queue
//     and retry with exponential backoff + jitter until admitted or their
//     patience runs out (reneging);
//   - bitrate degradation: when full-rate admission fails, a lower-rate copy
//     (the §4.3 scalable-bit-rate substrate) above a quality floor is served;
//   - re-replication repair: videos whose live replica count fell below a
//     threshold are re-copied onto the least-loaded up server, modelling copy
//     bandwidth as a temporary load the way internal/dynrep does.
//
// Every mechanism is individually toggleable through Policy; with all of
// them off the paper-faithful baseline behaviour is bit-for-bit untouched.
// Retry (Retrier) and repair (Repair) are clock-free rules: the simulator
// drives them from its event queue and the live daemon (internal/serve)
// from its timers, with the same Policy, so both sides make the same
// decisions from the same state.
package resilience

import (
	"fmt"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
)

// Policy selects and tunes the resilience mechanisms for one simulation run.
// The zero value disables everything; zero-valued tunables of an enabled
// mechanism take the defaults documented per field (apply with WithDefaults).
type Policy struct {
	// Failover re-admits streams torn down by a server failure onto a
	// surviving replica of the same video, at full rate or any copy rate
	// at or above DegradeFloor × nominal.
	Failover bool

	// Retry queues rejected requests for re-admission with exponential
	// backoff instead of insta-rejecting them.
	Retry bool
	// RetryBase is the delay before the first retry, seconds (default 5).
	RetryBase float64
	// RetryFactor multiplies the delay on each further attempt (default 2).
	RetryFactor float64
	// RetryJitter spreads each delay uniformly over ±Jitter/2 of itself,
	// in [0, 1]. Zero means the default 0.5, so a fully periodic schedule
	// needs a positive value too small to matter (say 1e-9); WithDefaults
	// cannot tell an unset jitter from a zero one.
	RetryJitter float64
	// RetryPatience is how long a client keeps retrying before reneging,
	// seconds (default 120).
	RetryPatience float64
	// RetryLimit bounds the number of requests queued for retry at once;
	// arrivals rejected while the queue is full are insta-rejected
	// (default 256).
	RetryLimit int

	// Degrade serves a lower-rate copy when full-rate admission fails —
	// meaningful under a layout with per-copy rates (core.Layout.Rates),
	// where it trades delivered quality for admission.
	Degrade bool
	// DegradeFloor is the minimum acceptable fraction of the nominal rate
	// for degraded service and failover, in (0, 1] (default 0.5).
	DegradeFloor float64

	// Repair re-replicates videos whose live replica count fell below
	// RepairMinLive onto the least-loaded up server.
	Repair bool
	// RepairMinLive is the live-replica threshold that triggers a repair
	// copy (default 2).
	RepairMinLive int
	// RepairInterval is the repair scan cadence, seconds (default 60).
	RepairInterval float64
	// RepairRate is the bandwidth one in-flight repair copy consumes, in
	// bits/s (default 200 Mb/s) — reserved on the cluster backbone when one
	// exists, otherwise on the source server's outgoing link.
	RepairRate float64
	// RepairMaxPerTick caps copies started per scan (default 2).
	RepairMaxPerTick int
	// RepairBudget caps the total bits/s of repair copies in flight at
	// once; a copy that would exceed it is skipped until one lands. Zero
	// means no cap beyond each copy's own bandwidth reservation.
	RepairBudget float64
}

// All returns a policy with every mechanism enabled at default tuning.
func All() Policy {
	return Policy{Failover: true, Retry: true, Degrade: true, Repair: true}.WithDefaults()
}

// Enabled reports whether any mechanism is switched on.
func (p Policy) Enabled() bool {
	return p.Failover || p.Retry || p.Degrade || p.Repair
}

// WithDefaults returns p with zero-valued tunables replaced by the defaults.
func (p Policy) WithDefaults() Policy {
	if p.RetryBase == 0 {
		p.RetryBase = 5
	}
	if p.RetryFactor == 0 {
		p.RetryFactor = 2
	}
	if p.RetryJitter == 0 {
		p.RetryJitter = 0.5
	}
	if p.RetryPatience == 0 {
		p.RetryPatience = 120
	}
	if p.RetryLimit == 0 {
		p.RetryLimit = 256
	}
	if p.DegradeFloor == 0 {
		p.DegradeFloor = 0.5
	}
	if p.RepairMinLive == 0 {
		p.RepairMinLive = 2
	}
	if p.RepairInterval == 0 {
		p.RepairInterval = 60
	}
	if p.RepairRate == 0 {
		p.RepairRate = 200 * core.Mbps
	}
	if p.RepairMaxPerTick == 0 {
		p.RepairMaxPerTick = 2
	}
	return p
}

// Validate checks the tunables (apply WithDefaults first).
func (p Policy) Validate() error {
	if p.RetryBase <= 0 {
		return fmt.Errorf("resilience: retry base delay must be positive, got %g", p.RetryBase)
	}
	if p.RetryFactor < 1 {
		return fmt.Errorf("resilience: retry factor must be >= 1, got %g", p.RetryFactor)
	}
	if p.RetryJitter < 0 || p.RetryJitter > 1 {
		return fmt.Errorf("resilience: retry jitter must be in [0,1], got %g", p.RetryJitter)
	}
	if p.RetryPatience <= 0 {
		return fmt.Errorf("resilience: retry patience must be positive, got %g", p.RetryPatience)
	}
	if p.RetryLimit < 1 {
		return fmt.Errorf("resilience: retry limit must be positive, got %d", p.RetryLimit)
	}
	if p.DegradeFloor <= 0 || p.DegradeFloor > 1 {
		return fmt.Errorf("resilience: degradation floor must be in (0,1], got %g", p.DegradeFloor)
	}
	if p.RepairMinLive < 1 {
		return fmt.Errorf("resilience: repair threshold must be positive, got %d", p.RepairMinLive)
	}
	if p.RepairInterval <= 0 {
		return fmt.Errorf("resilience: repair interval must be positive, got %g", p.RepairInterval)
	}
	if p.RepairRate <= 0 {
		return fmt.Errorf("resilience: repair copy rate must be positive, got %g", p.RepairRate)
	}
	if p.RepairMaxPerTick < 1 {
		return fmt.Errorf("resilience: repair copies per tick must be positive, got %d", p.RepairMaxPerTick)
	}
	if p.RepairBudget < 0 {
		return fmt.Errorf("resilience: repair budget must be non-negative, got %g", p.RepairBudget)
	}
	return nil
}

// bestCopy picks the server to serve one stream of v at a copy rate of at
// least floorRate: the up holder with admission headroom whose copy rate is
// highest, ties broken by most free outgoing bandwidth, then lowest index
// for determinism. It returns -1 when no copy qualifies.
func bestCopy(st *cluster.State, v int, floorRate float64) int {
	best := -1
	bestRate, bestFree := 0.0, 0.0
	for _, s := range st.Holders(v) {
		if !st.CanServe(s, v) {
			continue
		}
		rate := st.RateOf(v, s)
		if rate < floorRate-1e-9 {
			continue
		}
		free := st.FreeBandwidth(s)
		if best == -1 || rate > bestRate+1e-9 ||
			(rate > bestRate-1e-9 && free > bestFree+1e-9) {
			best, bestRate, bestFree = s, rate, free
		}
	}
	return best
}

// TryFailover re-admits one torn-down stream of video v onto a surviving
// replica at the highest copy rate available, refusing copies below
// floor × the video's nominal rate. It reports the new stream handle.
func TryFailover(st *cluster.State, v int, floor float64) (cluster.StreamID, bool) {
	s := bestCopy(st, v, floor*st.NominalRate(v))
	if s < 0 {
		return 0, false
	}
	return st.AdmitDirect(v, s)
}

// Degrader is a scheduler decorator: when the base policy rejects a request
// it serves the best copy at or above Floor × nominal rate instead — the
// graceful-degradation admission path of the §4.3 scalable-bit-rate model.
// LastDegraded reports whether the most recent decision delivered below the
// nominal rate, so the caller can account delivered-vs-nominal quality.
// Degrader keeps per-decision state; create one per simulation run.
type Degrader struct {
	base     cluster.Scheduler
	floor    float64
	degraded bool
}

// NewDegrader wraps base with degradation down to floor × nominal rate.
func NewDegrader(base cluster.Scheduler, floor float64) *Degrader {
	return &Degrader{base: base, floor: floor}
}

// Name implements cluster.Scheduler.
func (d *Degrader) Name() string { return d.base.Name() + "+degrade" }

// Unwrap exposes the base policy, so the simulator can find a
// cluster.SeededScheduler through the decorator chain.
func (d *Degrader) Unwrap() cluster.Scheduler { return d.base }

// Schedule implements cluster.Scheduler.
func (d *Degrader) Schedule(st *cluster.State, v int) cluster.Decision {
	d.degraded = false
	dec := d.base.Schedule(st, v)
	if dec.Accept {
		return dec
	}
	nominal := st.NominalRate(v)
	s := bestCopy(st, v, d.floor*nominal)
	if s < 0 {
		return cluster.Reject
	}
	// A full-rate rescue (the base policy simply missed a free replica) is
	// not a quality degradation.
	d.degraded = st.RateOf(v, s) < nominal-1e-9
	return cluster.Direct(s)
}

// LastDegraded reports whether the most recent Schedule call admitted below
// the nominal rate.
func (d *Degrader) LastDegraded() bool { return d.degraded }
