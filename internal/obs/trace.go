// Package obs is the observability layer shared by the simulator and the
// live serving daemon: a low-overhead ring-buffer event tracer for
// per-session lifecycle spans, concurrent histograms built on
// internal/stats rendered in the Prometheus text format, and a run manifest
// identifying the code and hardware a benchmark ran on.
//
// The tracer is deliberately minimal: a fixed-size ring of atomically
// published event records. Recording is lock-free (one atomic fetch-add for
// the sequence number, one atomic pointer store into the ring), so it can
// sit on the serving daemon's admission hot path and inside the simulator's
// event loop without serializing either. Old events are overwritten once
// the ring wraps; a trace is a window onto the recent past, not an archive.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies one traced lifecycle event.
type Kind uint8

// Lifecycle event kinds, following the session state machine
// arrive → admit/reject → serve → end/tear/failover and the serving
// daemon's HTTP surface.
const (
	// KindArrive is a request arriving, before the admission decision.
	KindArrive Kind = iota
	// KindAdmit is a successful admission: the session starts serving.
	KindAdmit
	// KindReject is a capacity rejection with no mechanism taking ownership.
	KindReject
	// KindRetry is a rejected arrival entering the retry queue.
	KindRetry
	// KindRenege is a queued retry giving up after exhausting its patience.
	KindRenege
	// KindEnd is a session's natural departure.
	KindEnd
	// KindTear is a session torn down for good by a failure or drain.
	KindTear
	// KindFailover is a torn session salvaged onto a surviving replica.
	KindFailover
	// KindDrain is an admission refused because the daemon was draining.
	KindDrain
	// KindHTTP is one served HTTP request (recorded by Middleware).
	KindHTTP
	// KindHealth is a backend health-state transition driven by the prober.
	KindHealth
	// KindRepair is a re-replication action (copy started, landed, aborted).
	KindRepair
)

var kindNames = [...]string{
	KindArrive:   "arrive",
	KindAdmit:    "admit",
	KindReject:   "reject",
	KindRetry:    "retry",
	KindRenege:   "renege",
	KindEnd:      "end",
	KindTear:     "tear",
	KindFailover: "failover",
	KindDrain:    "drain",
	KindHTTP:     "http",
	KindHealth:   "health",
	KindRepair:   "repair",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Event is one traced lifecycle record. TS is nanoseconds in the trace's
// time domain: wall nanoseconds since the tracer's epoch for the serving
// daemon, virtual-time nanoseconds (1 simulated second = 1e9) for the
// simulator. Session correlates the events of one stream; Server is the
// backend carrying it; DurNS is a span length for events that close one
// (end, tear, http).
type Event struct {
	Seq     uint64 `json:"seq"`
	TS      int64  `json:"ts_ns"`
	Kind    Kind   `json:"kind"`
	Session int64  `json:"session,omitempty"`
	Video   int    `json:"video,omitempty"`
	Server  int    `json:"server,omitempty"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Tracer is the fixed-size lock-free event ring. A nil *Tracer is a valid
// no-op tracer: Record on nil returns immediately, so callers wire tracing
// unconditionally and enable it by constructing one. All methods are safe
// for concurrent use.
type Tracer struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	next  atomic.Uint64
	epoch time.Time
}

// DefaultTraceEvents is the ring capacity NewTracer(0) provides.
const DefaultTraceEvents = 1 << 16

// NewTracer builds a tracer whose ring holds at least capacity events
// (rounded up to a power of two so the hot path masks instead of dividing).
// capacity <= 0 gets DefaultTraceEvents.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Tracer{
		slots: make([]atomic.Pointer[Event], size),
		mask:  uint64(size - 1),
		epoch: time.Now(),
	}
}

// Cap returns the ring capacity in events; 0 for a nil tracer.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Total returns how many events were ever recorded, including overwritten
// ones; 0 for a nil tracer.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// NowNS returns nanoseconds since the tracer's epoch — the wall-clock time
// domain serve-side events record their TS in. 0 for a nil tracer.
func (t *Tracer) NowNS() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// Record publishes one event into the ring, assigning its sequence number.
// The oldest resident event is overwritten once the ring is full. Record on
// a nil tracer is a no-op, so disabled tracing costs one predictable branch.
// The event is copied into a fresh heap cell only after the nil check —
// taking the parameter's own address would force the copy in the function
// prologue and charge one allocation per event even with tracing off (the
// ingress alloc guard pins this at zero).
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	ev := new(Event)
	*ev = e
	ev.Seq = t.next.Add(1) - 1
	t.slots[ev.Seq&t.mask].Store(ev)
}

// Snapshot returns the resident events in sequence order. Taken while
// writers are active it is a consistent set of individually-complete
// events, but the window boundaries are approximate — each slot holds
// whichever of its events was published last.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// traceDump is the JSON envelope WriteJSON produces.
type traceDump struct {
	Total    uint64  `json:"total_events"`
	Capacity int     `json:"capacity"`
	Events   []Event `json:"events"`
}

// WriteJSON dumps the resident window as indented JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{Total: t.Total(), Capacity: t.Cap(), Events: t.Snapshot()})
}

// chromeEvent is one record of the Chrome trace_event format (the JSON
// chrome://tracing and Perfetto load). Timestamps and durations are in
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace dumps the resident window in Chrome trace_event format:
// every event as an instant mark on its server's track, plus one complete
// ("X") span per session whose admit and end/tear both sit in the window,
// so session lifetimes render as bars in chrome://tracing or Perfetto.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Snapshot()
	out := make([]chromeEvent, 0, len(events)+len(events)/2)
	admits := make(map[int64]Event)
	for _, e := range events {
		args := map[string]any{"video": e.Video}
		if e.Session != 0 {
			args["session"] = e.Session
		}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(), Phase: "i", Scope: "t",
			TS: float64(e.TS) / 1e3, PID: 1, TID: e.Server, Args: args,
		})
		switch e.Kind {
		case KindAdmit, KindFailover:
			if e.Session != 0 {
				admits[e.Session] = e
			}
		case KindEnd, KindTear:
			if a, ok := admits[e.Session]; ok && e.TS >= a.TS {
				out = append(out, chromeEvent{
					Name:  fmt.Sprintf("session %d (video %d)", e.Session, a.Video),
					Phase: "X", TS: float64(a.TS) / 1e3, Dur: float64(e.TS-a.TS) / 1e3,
					PID: 1, TID: a.Server,
					Args: map[string]any{"video": a.Video, "outcome": e.Kind.String()},
				})
				delete(admits, e.Session)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}
