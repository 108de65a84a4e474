package serve

import (
	"fmt"

	"vodcluster/internal/obs"
)

// Rebalancer is the hook a live placement controller (internal/rebalance)
// implements. The serve layer defines the interface so the dependency points
// outward: nothing under serve imports the controller, and a daemon without
// one attached behaves bit-identically — the admission path pays one nil
// pointer load per request.
type Rebalancer interface {
	// Observe records one arriving request for the popularity estimator.
	// It must be cheap and non-blocking: it sits on the admission path.
	Observe(video int)
	// Trigger requests an immediate rebalance round (coalesced when one is
	// already pending); it reports whether the controller accepted the kick.
	Trigger() bool
	// Status returns a snapshot of the controller's state for GET /rebalance.
	Status() RebalanceStatus
	// Stop terminates the control loop and waits for in-flight copies.
	Stop()
}

// RebalanceAction is one journaled rebalancer decision, mirroring
// RepairAction so the two journals read alike.
type RebalanceAction struct {
	TimeNS int64  `json:"ts_ns"` // tracer-epoch nanoseconds
	Action string `json:"action"`
	Video  int    `json:"video"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Detail string `json:"detail,omitempty"`
}

// RebalanceStatus is the GET /rebalance snapshot.
type RebalanceStatus struct {
	Enabled         bool              `json:"enabled"`
	LayoutVersion   int64             `json:"layout_version"`
	Rounds          int64             `json:"rounds"`
	Migrations      int64             `json:"migrations"`
	Evictions       int64             `json:"evictions"`
	Deferred        int64             `json:"deferred"`
	Skipped         int64             `json:"skipped"`
	Inflight        int               `json:"inflight"`
	PendingMoves    int               `json:"pending_moves"`
	PeakCopyRateBps float64           `json:"peak_copy_rate_bps"`
	Journal         []RebalanceAction `json:"journal"`
}

// AttachRebalancer wires a placement controller into the daemon: every
// settled admission request is observed, and Shutdown stops the loop.
func (s *Server) AttachRebalancer(r Rebalancer) { s.reb.Store(&r) }

// Rebalancer returns the attached placement controller, or nil.
func (s *Server) Rebalancer() Rebalancer {
	if rp := s.reb.Load(); rp != nil {
		return *rp
	}
	return nil
}

// observeDemand feeds one validated request into the attached rebalancer's
// popularity estimator; a no-op (one atomic load) when none is attached.
func (s *Server) observeDemand(v int) {
	if rp := s.reb.Load(); rp != nil {
		(*rp).Observe(v)
	}
}

// LandReplica publishes a migrated replica of video v on backend b: the
// rebalancer's counterpart of the repairer's settle path. The holder list is
// republished atomically and vod_migrations_total counts it.
func (s *Server) LandReplica(v, b int) error {
	if v < 0 || v >= s.c.Videos() {
		return ErrNoReplica
	}
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if s.c.State(b) == BackendDown {
		return ErrBackendDown
	}
	if !s.c.AddHolder(v, b) {
		return fmt.Errorf("serve: backend %d already holds video %d", b, v)
	}
	s.met.Migrated()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica migrated in"})
	return nil
}

// EvictReplica removes video v's replica from backend b when it is safe: the
// copy must exist, must not be the video's last live copy, and must have no
// pinned sessions. The pinned check runs again after the holder list
// shrinks, under each registry partition's lock: an admission or failover
// that committed meanwhile is seen and rolls the eviction back, and one that
// commits later re-checks the holder under that lock, finds it gone, and
// decides again — so no live session ever streams from an evicted copy.
func (s *Server) EvictReplica(v, b int) error {
	if v < 0 || v >= s.c.Videos() {
		return ErrNoReplica
	}
	if b < 0 || b >= s.c.Servers() {
		return &BackendRangeError{Backend: b, Servers: s.c.Servers()}
	}
	if !holds(s.c, v, b) {
		return ErrNoReplica
	}
	// At least one other holder must remain readable or the video would
	// become unservable (constraint Eq. 7 on the live directory).
	live := 0
	for _, h := range s.c.Holders(v) {
		if h != b && s.c.State(h) != BackendDown {
			live++
		}
	}
	if live == 0 {
		return ErrLastReplica
	}
	if s.PinnedSessions(v, b) > 0 {
		return ErrReplicaPinned
	}
	if !s.c.RemoveHolder(v, b) {
		return ErrLastReplica // lost a race that shrank the list to one
	}
	// Re-check under the post-removal directory: an admission that pinned the
	// replica between our check and the removal saw the old holder list, so
	// put the copy back and let the caller retry after the session drains.
	if s.PinnedSessions(v, b) > 0 {
		s.c.AddHolder(v, b)
		return ErrReplicaPinned
	}
	s.met.Evicted()
	s.tracer.Record(obs.Event{TS: s.tracer.NowNS(), Kind: obs.KindRepair,
		Video: v, Server: b, Detail: "replica evicted"})
	return nil
}
