// Package avail models the availability dimension of the paper: server
// failures and repairs, the analytic relationship between replication degree
// and content availability, and durability of the per-server disk arrays.
//
// The paper motivates replication with "high availability ... low rejection
// rate and high replication degree" (§1, §3.2) but evaluates only the
// rejection side; this package supplies the failure substrate so the
// reliability claim can be exercised too. Servers fail and repair as
// independent alternating renewal processes with exponential times; a video
// is unavailable while every server holding a replica is down, and the
// expected fraction of requests arriving for unavailable content follows in
// closed form, which the simulator's measured drop/rejection rates can be
// checked against.
package avail

import (
	"fmt"
	"math"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// FailureModel describes one server's alternating failure/repair process.
type FailureModel struct {
	// MTBF is the mean time between failures (up time), in seconds.
	MTBF float64
	// MTTR is the mean time to repair (down time), in seconds.
	MTTR float64
}

// Validate checks the model parameters.
func (f FailureModel) Validate() error {
	if f.MTBF <= 0 {
		return fmt.Errorf("avail: MTBF must be positive, got %g", f.MTBF)
	}
	if f.MTTR <= 0 {
		return fmt.Errorf("avail: MTTR must be positive, got %g", f.MTTR)
	}
	return nil
}

// Availability returns the steady-state probability that a server is up:
// MTBF / (MTBF + MTTR).
func (f FailureModel) Availability() float64 {
	return f.MTBF / (f.MTBF + f.MTTR)
}

// Unavailability returns 1 − Availability().
func (f FailureModel) Unavailability() float64 {
	return f.MTTR / (f.MTBF + f.MTTR)
}

// NextUptime samples the time until the next failure.
func (f FailureModel) NextUptime(rng *stats.RNG) float64 {
	return rng.Exponential(1 / f.MTBF)
}

// NextDowntime samples the repair duration.
func (f FailureModel) NextDowntime(rng *stats.RNG) float64 {
	return rng.Exponential(1 / f.MTTR)
}

// FailureEvent is one scripted server failure for deterministic scenarios:
// server Server fails at virtual time At and repairs Down seconds later.
// Down <= 0 means the server stays down for the rest of the run. Scripted
// events complement the stochastic FailureModel where a test or trace-replay
// experiment needs exact, reproducible failure timing.
type FailureEvent struct {
	// At is the failure instant in virtual seconds.
	At float64
	// Server is the index of the failing server.
	Server int
	// Down is the repair delay in seconds; <= 0 disables repair.
	Down float64
}

// Validate checks the event against a cluster of numServers servers.
func (e FailureEvent) Validate(numServers int) error {
	if e.At < 0 {
		return fmt.Errorf("avail: failure time must be non-negative, got %g", e.At)
	}
	if e.Server < 0 || e.Server >= numServers {
		return fmt.Errorf("avail: failure targets server %d of %d", e.Server, numServers)
	}
	return nil
}

// VideoUnavailability returns the steady-state probability that a video with
// r replicas on servers with the given per-server unavailability u is
// completely unreachable: u^r, assuming independent server failures (the
// paper's distributed-storage architecture has no shared components).
func VideoUnavailability(u float64, r int) float64 {
	if r <= 0 {
		return 1
	}
	return math.Pow(u, float64(r))
}

// UnavailableRequestMass returns the expected fraction of requests that
// arrive for content with every replica down under layout l:
//
//	Σ_i p_i · u^{r_i}
//
// This is the analytic availability counterpart of the rejection rate: it
// falls geometrically with the replication degree, which is exactly the
// paper's argument for replication as an availability mechanism.
func UnavailableRequestMass(p *core.Problem, l *core.Layout, u float64) float64 {
	mass := 0.0
	for i, v := range p.Catalog {
		mass += v.Popularity * VideoUnavailability(u, len(l.Servers[i]))
	}
	return mass
}

// ExpectedServedFraction returns a first-order estimate of the fraction of
// offered requests a failing cluster can still admit: requests for available
// content, scaled by the surviving aggregate bandwidth when the offered load
// exceeds it. It deliberately ignores imbalance (the simulator measures
// that), giving an optimistic analytic bound.
func ExpectedServedFraction(p *core.Problem, l *core.Layout, f FailureModel) float64 {
	u := f.Unavailability()
	available := 1 - UnavailableRequestMass(p, l, u)
	// Surviving capacity: (1−u)·N servers' outgoing bandwidth vs offered.
	sat, err := p.SaturationArrivalRate()
	if err != nil || p.ArrivalRate <= 0 {
		return available
	}
	capFraction := (1 - u) * sat / p.ArrivalRate
	if capFraction < available {
		return capFraction
	}
	return available
}

// MTTDLRaid5 returns the classic mean time to data loss of an n-disk RAID-5
// group with per-disk MTBF m and rebuild time t: m² / (n·(n−1)·t).
// It quantifies the paper's note that striping+parity inside a server covers
// disk failures while cross-server replication covers server failures.
func MTTDLRaid5(n int, mtbfDisk, rebuildSeconds float64) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("avail: RAID5 needs at least 3 disks, got %d", n)
	}
	if mtbfDisk <= 0 || rebuildSeconds <= 0 {
		return 0, fmt.Errorf("avail: MTBF and rebuild time must be positive")
	}
	return mtbfDisk * mtbfDisk / (float64(n) * float64(n-1) * rebuildSeconds), nil
}

// DegreeForTarget returns the smallest uniform replica count r such that a
// video's unavailability u^r falls at or below the target. It inverts
// VideoUnavailability for capacity planning.
func DegreeForTarget(u, target float64) (int, error) {
	if u <= 0 || u >= 1 {
		return 0, fmt.Errorf("avail: server unavailability must be in (0,1), got %g", u)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("avail: target must be in (0,1), got %g", target)
	}
	r := int(math.Ceil(math.Log(target) / math.Log(u)))
	if r < 1 {
		r = 1
	}
	return r, nil
}
