package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans are
// recorded only on the traced pass, from the benchmark's own files, around
// the layer's public functions; nothing inside the program under test is
// instrumented.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int // index into the same track's spans, or -1
	Rep    int
}

// track is the span list of one goroutine. Each load-generator goroutine
// owns a track, so begin/end need no lock and parents never cross goroutines.
type track struct {
	t      *tracer
	spans  []span
	stack  []int
	counts map[string]float64
}

// tracer holds every track of one workload run. A nil *tracer (and the nil
// *track it hands out) records nothing, which is the untraced pass.
type tracer struct {
	workload string
	epoch    time.Time
	rep      int // the repetition under way, 0 during set-up and layer measurements
	tracks   []*track
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// newTrack adds a track; call it before the goroutine that uses it starts.
func (t *tracer) newTrack() *track {
	if t == nil {
		return nil
	}
	k := &track{t: t}
	t.tracks = append(t.tracks, k)
	return k
}

// begin opens a span under the innermost open one and returns its handle.
func (k *track) begin(name string) int {
	if k == nil {
		return -1
	}
	parent := -1
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	k.spans = append(k.spans, span{Name: name, Start: int64(time.Since(k.t.epoch)), Parent: parent, Rep: k.t.rep})
	id := len(k.spans) - 1
	k.stack = append(k.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (k *track) end(id int) {
	if k == nil {
		return
	}
	k.spans[id].End = int64(time.Since(k.t.epoch))
	k.stack = k.stack[:len(k.stack)-1]
}

// note adds v to the track's counter called name: the counts taken at the
// same boundaries as the spans, from which the ratios are made.
func (k *track) note(name string, v float64) {
	if k == nil {
		return
	}
	if k.counts == nil {
		k.counts = map[string]float64{}
	}
	k.counts[name] += v
}

// count sums the counter called name over every track.
func (t *tracer) count(name string) float64 {
	total := 0.0
	if t != nil {
		for _, k := range t.tracks {
			total += k.counts[name]
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part of that interval its
// direct children cover. Children of one parent on one track never overlap
// (they come from one goroutine's call stack), so covered time is their sum,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration
	Self  time.Duration
	durs  sample // seconds, one per span
}

// stats groups every track's spans by name.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	for _, k := range t.tracks {
		self := selfTimes(k.spans)
		for i, s := range k.spans {
			st := out[s.Name]
			if st == nil {
				st = &spanStat{}
				out[s.Name] = st
			}
			st.Count++
			st.Total += time.Duration(s.End - s.Start)
			st.Self += time.Duration(self[i])
			st.durs = append(st.durs, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// medianSeconds is the median duration of the spans called name, 0 if the
// workload never made that call.
func medianSeconds(stats map[string]*spanStat, name string) float64 {
	if st := stats[name]; st != nil {
		return st.durs.median()
	}
	return 0
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as benchmark/out/trace-<workload>.json, loadable in
// chrome://tracing or Perfetto.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var events []chromeEvent
	for tid, k := range t.tracks {
		for i, s := range k.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: t.workload, Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				PID: 1, TID: tid,
				Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep, "workload": t.workload},
			})
		}
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// printStats lists the traced pass's spans by total time, longest first.
func printStats(stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].Total > stats[names[j]].Total })
	fmt.Printf("%-32s %9s %12s %12s %12s\n", "span", "count", "total", "self", "median")
	for _, n := range names {
		st := stats[n]
		fmt.Printf("%-32s %9d %12s %12s %12s\n", n, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond),
			time.Duration(st.durs.median()*1e9).Round(10*time.Nanosecond))
	}
}
