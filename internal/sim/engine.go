// Package sim provides a small discrete-event simulation engine and, on top
// of it, the VoD cluster simulation the paper's evaluation is built on:
// Poisson request arrivals over a peak period, Zipf-like video selection,
// bandwidth-only admission control, and fixed-duration streaming sessions.
package sim

import "fmt"

// Handler is invoked when an event fires; now is the event's virtual time in
// seconds.
type Handler func(now float64)

// OpHandler is the handler of a registered event kind (RegisterOp): it
// receives the integer argument the event was scheduled with.
type OpHandler func(now float64, arg int64)

// Op names an event kind registered with RegisterOp.
type Op int32

// opClosure marks an event whose arg indexes the closure slot table.
const opClosure Op = 0

// Engine is a minimal discrete-event executor with a virtual clock. It is
// not safe for concurrent use.
//
// Order contract: events fire by ascending time, and events scheduled for
// the same instant fire in scheduling order (FIFO) — every scheduled event
// takes the next sequence number and the queue orders by (at, seq). The
// order is total, which keeps runs deterministic; it also means that
// scheduling the same events in a different order (say, lazily instead of
// up front) can change which of two simultaneous events fires first.
//
// Two ways to schedule. Schedule takes a closure and suits rare events. A
// hot event kind is registered once with RegisterOp and then scheduled with
// ScheduleOp and an integer argument; such an event is 32 bytes of plain
// values, so scheduling and firing it allocates nothing. Closures ride the
// same queue: the closure is parked in a slot table and the event carries
// the slot index, so the queue itself holds no pointers — the collector
// never scans it and a sift needs no write barrier.
//
// The queue is a 4-ary min-heap plus one monotone lane: an event not earlier
// than the lane's newest entry is appended to the lane in O(1), anything
// else is pushed on the heap, and the next event is the smaller of lane head
// and heap top under (at, seq). The lane is sorted by construction (seq only
// grows, so "not earlier" is enough), hence the merge never reorders
// anything; it only decides how much work an insertion is. A simulation
// whose sessions all last equally long schedules every departure at now + T,
// each not earlier than the last, so they all take the lane and the heap
// holds little more than the next arrival.
type Engine struct {
	now float64
	seq uint64
	ops []OpHandler
	engineBuffers
}

// engineBuffers is the storage an Engine grows while it runs — what sim.Run
// recycles from one run to the next. The zero value is ready to use.
type engineBuffers struct {
	heap     []event // 4-ary min-heap by (at, seq)
	lane     []event // ring, len 0 or a power of two, ascending by (at, seq)
	laneHead int     // index of the lane's oldest entry
	laneLen  int
	closures []Handler // slot table for Schedule's closures
	free     []int32   // vacant closure slots
}

// reset empties the buffers for the next engine, dropping every closure.
func (b *engineBuffers) reset() {
	b.heap = b.heap[:0]
	b.laneHead, b.laneLen = 0, 0
	clear(b.closures)
	b.closures = b.closures[:0]
	b.free = b.free[:0]
}

// event is deliberately pointer-free: see Engine.
type event struct {
	at  float64
	seq uint64
	arg int64
	op  Op
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RegisterOp registers the handler of an event kind and returns the Op to
// schedule it under.
func (e *Engine) RegisterOp(h OpHandler) Op {
	e.ops = append(e.ops, h)
	return Op(len(e.ops)) // opClosure is 0; registered kinds count from 1
}

// Schedule registers h to fire at absolute virtual time t. Scheduling in the
// past (t < Now) or at NaN is an error; +Inf is a valid "never" that orders
// after every finite time.
func (e *Engine) Schedule(t float64, h Handler) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
		e.closures[slot] = h
	} else {
		slot = int32(len(e.closures))
		e.closures = append(e.closures, h)
	}
	e.push(t, opClosure, int64(slot))
	return nil
}

// ScheduleAfter registers h to fire delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, h Handler) error {
	return e.Schedule(e.now+delay, h)
}

// ScheduleOp registers an event of a kind returned by RegisterOp to fire at
// absolute virtual time t with the given argument. Time is checked as in
// Schedule.
func (e *Engine) ScheduleOp(t float64, op Op, arg int64) error {
	if err := e.checkTime(t); err != nil {
		return err
	}
	if op <= opClosure || int(op) > len(e.ops) {
		return fmt.Errorf("sim: scheduling unregistered event kind %d", op)
	}
	e.push(t, op, arg)
	return nil
}

func (e *Engine) checkTime(t float64) error {
	if t != t {
		// A NaN compares false both ways and would silently break the
		// queue's order for every later event.
		return fmt.Errorf("sim: scheduling event at NaN")
	}
	if t < e.now {
		return fmt.Errorf("sim: scheduling event at %g before current time %g", t, e.now)
	}
	return nil
}

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return e.laneLen + len(e.heap) }

// Step fires the earliest pending event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	if ev.op == opClosure {
		h := e.closures[ev.arg]
		e.closures[ev.arg] = nil
		e.free = append(e.free, int32(ev.arg))
		h(e.now)
	} else {
		e.ops[ev.op-1](e.now, ev.arg)
	}
	return true
}

// Run fires events until the queue is empty or the clock would pass horizon.
// Events scheduled at exactly horizon still fire. It returns the number of
// events executed.
func (e *Engine) Run(horizon float64) int {
	n := 0
	for e.Pending() > 0 && e.peek().at <= horizon {
		e.Step()
		n++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return n
}

// RunAll fires every pending event (including ones new handlers schedule)
// and returns the count.
func (e *Engine) RunAll() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// push takes the next sequence number and files the event in the lane when
// it keeps the lane sorted, in the heap otherwise.
func (e *Engine) push(t float64, op Op, arg int64) {
	e.seq++
	ev := event{at: t, seq: e.seq, arg: arg, op: op}
	if e.laneLen == 0 || t >= e.lane[e.laneIndex(e.laneLen-1)].at {
		e.lanePush(ev)
	} else {
		e.heapPush(ev)
	}
}

// fromLane reports whether the next event is the lane's head rather than the
// heap's top. The queue must not be empty.
func (e *Engine) fromLane() bool {
	if e.laneLen == 0 {
		return false
	}
	return len(e.heap) == 0 || !e.heap[0].before(&e.lane[e.laneHead])
}

// peek returns the next event without removing it. The queue must not be
// empty.
func (e *Engine) peek() *event {
	if e.fromLane() {
		return &e.lane[e.laneHead]
	}
	return &e.heap[0]
}

// pop removes and returns the next event. The queue must not be empty.
func (e *Engine) pop() event {
	if e.fromLane() {
		ev := e.lane[e.laneHead]
		e.laneHead = e.laneIndex(1)
		e.laneLen--
		return ev
	}
	return e.heapPop()
}

// laneIndex returns the ring index of the lane's i-th entry, oldest first.
func (e *Engine) laneIndex(i int) int { return (e.laneHead + i) & (len(e.lane) - 1) }

func (e *Engine) lanePush(ev event) {
	if e.laneLen == len(e.lane) {
		e.laneGrow()
	}
	e.lane[e.laneIndex(e.laneLen)] = ev
	e.laneLen++
}

// laneGrow doubles the ring, unrolling it so the oldest entry is at index 0.
func (e *Engine) laneGrow() {
	n := 2 * len(e.lane)
	if n == 0 {
		n = 64
	}
	ring := make([]event, n)
	k := copy(ring, e.lane[e.laneHead:])
	copy(ring[k:], e.lane[:e.laneHead])
	e.lane, e.laneHead = ring, 0
}

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	// Sift the former last entry down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}
