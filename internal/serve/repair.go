package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vodcluster/internal/obs"
	"vodcluster/internal/resilience"
)

// RepairAction is one journaled repairer decision.
type RepairAction struct {
	TimeNS int64  `json:"ts_ns"` // tracer-epoch nanoseconds
	Action string `json:"action"`
	Video  int    `json:"video"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Detail string `json:"detail,omitempty"`
}

// Repairer runs the simulator's re-replication rule (resilience.Repairer) on
// the live cluster: New builds and starts one when Config.Resilience.Repair
// is set. Its goroutine scans every RepairInterval virtual seconds (divided
// by the compression factor), and at once when FailBackend kicks it; each
// started copy waits out its transfer time on a timer and then lands or
// aborts under the rule's landing check. A landed copy is published to the
// Cluster's holder lists, journaled, and counted in
// vod_rereplications_total.
type Repairer struct {
	s    *Server
	tick time.Duration // wall-clock scan cadence

	kick     chan struct{}
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	copies   sync.WaitGroup

	mu      sync.Mutex // guards rule and journal
	rule    *resilience.Repairer
	journal []RepairAction
}

// maxJournal bounds the kept journal; the oldest half is discarded beyond it.
const maxJournal = 4096

// newRepairer builds the daemon's repairer for a defaulted policy and
// starts its scan loop.
func newRepairer(s *Server, pol resilience.Policy) (*Repairer, error) {
	rule, err := resilience.NewRepairer(s.c.Problem(), pol)
	if err != nil {
		return nil, err
	}
	r := &Repairer{
		s:    s,
		tick: s.wall(pol.RepairInterval),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		rule: rule,
	}
	go r.run()
	return r, nil
}

// Repairer returns the daemon's re-replication repairer, or nil when
// Config.Resilience does not enable repair.
func (s *Server) Repairer() *Repairer { return s.rep }

// Started returns the number of repair copies begun.
func (r *Repairer) Started() int64 { return r.count((*resilience.Repairer).Started) }

// Completed returns the number of repair copies landed as replicas.
func (r *Repairer) Completed() int64 { return r.count((*resilience.Repairer).Completed) }

// Aborted returns copies dropped unlanded: an endpoint died mid-copy, the
// destination filled up or gained the video meanwhile, or the daemon shut
// down.
func (r *Repairer) Aborted() int64 { return r.count((*resilience.Repairer).Aborted) }

// Skipped returns repair opportunities abandoned for lack of a source, a
// destination with storage room, bandwidth, or budget.
func (r *Repairer) Skipped() int64 { return r.count((*resilience.Repairer).Skipped) }

// Inflight returns the number of copies currently in flight.
func (r *Repairer) Inflight() int { return int(r.count((*resilience.Repairer).Inflight)) }

func (r *Repairer) count(f func(*resilience.Repairer) int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(f(r.rule))
}

// PeakCopyRate returns the high-water mark of concurrent repair bandwidth in
// bits/s — what the budget bounds when one is configured.
func (r *Repairer) PeakCopyRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rule.PeakRate()
}

// Journal returns a copy of the journaled repair actions, oldest first.
func (r *Repairer) Journal() []RepairAction {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RepairAction(nil), r.journal...)
}

// run is the scan loop.
func (r *Repairer) run() {
	defer close(r.done)
	tick := time.NewTicker(r.tick)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
		case <-tick.C:
		}
		for _, c := range r.scan() {
			r.copies.Add(1)
			go r.transfer(c)
		}
	}
}

// stopAndWait terminates the scan loop, aborts in-flight copies, and waits
// for everything to wind down; Server.Shutdown calls it.
func (r *Repairer) stopAndWait() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.copies.Wait()
}

// Kick requests an immediate scan (coalesced if one is already pending);
// FailBackend calls it so repair starts at the crash, not the next tick.
func (r *Repairer) Kick() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// scan runs one pass of the rule and journals every copy it started.
func (r *Repairer) scan() []resilience.Copy {
	r.mu.Lock()
	defer r.mu.Unlock()
	copies := r.rule.Scan(r.s.c, nil)
	for _, c := range copies {
		now := r.s.tracer.NowNS()
		r.log(RepairAction{TimeNS: now, Action: "start", Video: c.Video, Src: c.Src, Dst: c.Dst})
		r.s.tracer.Record(obs.Event{TS: now, Kind: obs.KindRepair,
			Video: c.Video, Server: c.Dst, Detail: fmt.Sprintf("copy from %d", c.Src)})
	}
	return copies
}

// transfer waits out copy c's (compressed) transfer time, then lands it —
// or cancels it when the daemon shuts down first.
func (r *Repairer) transfer(c resilience.Copy) {
	defer r.copies.Done()
	t := time.NewTimer(r.s.wall(c.Seconds))
	select {
	case <-t.C:
		r.land(c, true)
	case <-r.stop:
		t.Stop()
		r.land(c, false)
	}
}

// errHeld is the daemon's landing refusal: another path (the rebalancer)
// published the same replica after the rule's check.
var errHeld = errors.New("destination already holds a replica")

// land settles copy c under the rule — finished false cancels it — and
// journals the outcome. It returns the abort reason, or "" for a landing.
func (r *Repairer) land(c resilience.Copy, finished bool) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	reason := "shutdown"
	if finished {
		reason = r.rule.Land(r.s.c, c, func() error {
			if !r.s.landRepair(c.Video, c.Dst) {
				return errHeld
			}
			return nil
		})
	} else {
		r.rule.Cancel(r.s.c, c)
	}
	a := RepairAction{TimeNS: r.s.tracer.NowNS(), Action: "complete", Video: c.Video, Src: c.Src, Dst: c.Dst, Detail: reason}
	detail := "replica restored"
	if reason != "" {
		a.Action, detail = "abort", "abort: "+reason
	} else {
		r.s.met.ReReplicated()
	}
	r.log(a)
	r.s.tracer.Record(obs.Event{TS: a.TimeNS, Kind: obs.KindRepair, Video: c.Video, Server: c.Dst, Detail: detail})
	return reason
}

// log appends one journal entry under r.mu, trimming the oldest half at the
// cap.
func (r *Repairer) log(a RepairAction) {
	if len(r.journal) >= maxJournal {
		r.journal = append(r.journal[:0], r.journal[maxJournal/2:]...)
	}
	r.journal = append(r.journal, a)
}

// holds reports whether server s currently holds a replica of v.
func holds(c *Cluster, v, s int) bool {
	for _, h := range c.Holders(v) {
		if h == s {
			return true
		}
	}
	return false
}
