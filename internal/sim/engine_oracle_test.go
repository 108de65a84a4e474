package sim

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"vodcluster/internal/stats"
)

// oracleEngine is the engine this package had before the value-typed queue:
// container/heap over heap-allocated *oracleEvent holding a closure. It stays
// here as the reference the differential tests compare Engine against — same
// (at, seq) order, nothing else shared.
type oracleEngine struct {
	now   float64
	queue oracleQueue
	seq   uint64
}

func (e *oracleEngine) Now() float64 { return e.now }

func (e *oracleEngine) Schedule(t float64, h Handler) error {
	if t < e.now {
		return fmt.Errorf("oracle: scheduling event at %g before current time %g", t, e.now)
	}
	e.seq++
	heap.Push(&e.queue, &oracleEvent{at: t, seq: e.seq, fn: h})
	return nil
}

func (e *oracleEngine) Pending() int { return e.queue.Len() }

func (e *oracleEngine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*oracleEvent)
	e.now = ev.at
	ev.fn(e.now)
	return true
}

func (e *oracleEngine) Run(horizon float64) int {
	n := 0
	for e.queue.Len() > 0 && e.queue[0].at <= horizon {
		e.Step()
		n++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return n
}

type oracleEvent struct {
	at  float64
	seq uint64
	fn  Handler
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }

func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *oracleQueue) Push(x any) { *q = append(*q, x.(*oracleEvent)) }

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// shadow keeps an oracleQueue in step with a live Engine, so that a whole
// simulation can be checked event for event against the old queue's order
// without a second copy of the simulation: before every Step, whatever the
// engine has scheduled since the last one is pushed on the oracle, and the
// oracle's pop must name the event the engine is about to fire.
type shadow struct {
	q    oracleQueue
	seen uint64 // engine seq up to which events have been mirrored
}

// step mirrors, checks and fires one event; it reports false on an empty
// queue.
func (s *shadow) step(t testing.TB, e *Engine) bool {
	t.Helper()
	mirror := func(ev event) {
		if ev.seq > s.seen {
			heap.Push(&s.q, &oracleEvent{at: ev.at, seq: ev.seq})
		}
	}
	for _, ev := range e.heap {
		mirror(ev)
	}
	for i := 0; i < e.laneLen; i++ {
		mirror(e.lane[e.laneIndex(i)])
	}
	s.seen = e.seq
	if s.q.Len() != e.Pending() {
		t.Fatalf("engine has %d events pending, oracle %d", e.Pending(), s.q.Len())
	}
	if s.q.Len() == 0 {
		return false
	}
	want := heap.Pop(&s.q).(*oracleEvent)
	if got := e.peek(); got.at != want.at || got.seq != want.seq {
		t.Fatalf("engine fires (at %v, seq %d) next, oracle (at %v, seq %d)", got.at, got.seq, want.at, want.seq)
	}
	e.Step()
	return true
}

// chooser supplies the decisions of one generated schedule: a seeded RNG in
// the property test, the fuzzer's bytes in FuzzEngineOrder.
type chooser interface {
	// next returns a value in [0, n).
	next(n int) int
}

type rngChooser struct{ rng *stats.RNG }

func (c rngChooser) next(n int) int { return c.rng.Intn(n) }

// byteChooser reads decisions off a byte string and answers 0 once it runs
// out, so every input is a finite schedule.
type byteChooser struct{ data []byte }

func (c *byteChooser) next(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// A schedule script is what one generated run did, recorded on the first
// engine so the second can be made to do exactly the same: who was scheduled
// up front, which events each event scheduled when it fired, and how the
// queue was driven.
type schedCall struct {
	t  float64
	id int
}

type driveOp struct {
	run     bool // Run(horizon) rather than one Step
	horizon float64
}

type script struct {
	initial  []schedCall
	children map[int][]schedCall
	drive    []driveOp
}

// engineLog is everything observable about a run of a script.
type engineLog struct {
	Fired    []schedCall // id and clock of every firing, in order
	Pending  []int       // Pending() after every drive op
	Ran      []int       // what every drive op returned (Step: 0 or 1)
	Clock    []float64   // Now() after every drive op
	Rejected []int       // ids whose scheduling was refused
}

const (
	scriptGrid      = 0.5 // every time is a multiple, so ties and exact horizons are common
	scriptMaxEvents = 400
	scriptMaxDrive  = 4000
)

// recordScript generates a schedule from c while running it on a new Engine,
// half of the events as closures and half as registered ops, and returns the
// script with what the engine did.
func recordScript(c chooser) (script, engineLog) {
	e := NewEngine()
	sc := script{children: map[int][]schedCall{}}
	var log engineLog
	nextID := 0

	var fire func(id int, now float64)
	op := e.RegisterOp(func(now float64, arg int64) { fire(int(arg), now) })
	schedule := func(t float64, id int) bool {
		var err error
		if id%2 == 0 {
			err = e.ScheduleOp(t, op, int64(id))
		} else {
			err = e.Schedule(t, func(now float64) { fire(id, now) })
		}
		if err != nil {
			log.Rejected = append(log.Rejected, id)
		}
		return err == nil
	}
	// pickTime chooses a child's time relative to the clock and, where there
	// is one, to the lane's newest entry — the boundary the engine files by.
	pickTime := func(now float64) float64 {
		tail := now
		if e.laneLen > 0 {
			tail = e.lane[e.laneIndex(e.laneLen-1)].at
		}
		switch c.next(9) {
		case 0:
			return now // same instant as the event scheduling it
		case 1:
			return now + scriptGrid*float64(c.next(4))
		case 2:
			return tail // ties the lane's tail
		case 3:
			return math.Max(now, tail-scriptGrid) // earlier than the tail: heap
		case 4:
			return tail + scriptGrid // later than the tail: lane
		case 5:
			return now + scriptGrid*float64(c.next(64))
		case 6:
			return now - scriptGrid // the past: must be refused
		case 7:
			if c.next(8) == 0 {
				return math.Inf(1)
			}
		}
		return now + scriptGrid*float64(1+c.next(16))
	}
	fire = func(id int, now float64) {
		log.Fired = append(log.Fired, schedCall{now, id})
		for k := c.next(4); k > 0 && nextID < scriptMaxEvents; k-- {
			call := schedCall{pickTime(now), nextID}
			nextID++
			sc.children[id] = append(sc.children[id], call)
			schedule(call.t, call.id)
		}
	}

	for k := 1 + c.next(24); k > 0; k-- {
		call := schedCall{scriptGrid * float64(c.next(32)), nextID}
		nextID++
		sc.initial = append(sc.initial, call)
		schedule(call.t, call.id)
	}
	for len(sc.drive) < scriptMaxDrive && e.Pending() > 0 {
		d := driveOp{}
		if c.next(8) == 0 {
			d = driveOp{run: true, horizon: e.Now() + scriptGrid*float64(c.next(8))}
		}
		sc.drive = append(sc.drive, d)
		log.drive(e, d)
	}
	return sc, log
}

// scriptEngine is what a script needs of an engine.
type scriptEngine interface {
	Now() float64
	Step() bool
	Run(horizon float64) int
	Pending() int
}

func (l *engineLog) drive(e scriptEngine, op driveOp) {
	n := 0
	if op.run {
		n = e.Run(op.horizon)
	} else if e.Step() {
		n = 1
	}
	l.Ran = append(l.Ran, n)
	l.Pending = append(l.Pending, e.Pending())
	l.Clock = append(l.Clock, e.Now())
}

// replayOnOracle runs a recorded script on the old engine.
func replayOnOracle(sc script) engineLog {
	e := &oracleEngine{}
	var log engineLog
	var schedule func(call schedCall)
	schedule = func(call schedCall) {
		err := e.Schedule(call.t, func(now float64) {
			log.Fired = append(log.Fired, schedCall{now, call.id})
			for _, child := range sc.children[call.id] {
				schedule(child)
			}
		})
		if err != nil {
			log.Rejected = append(log.Rejected, call.id)
		}
	}
	for _, call := range sc.initial {
		schedule(call)
	}
	for _, op := range sc.drive {
		log.drive(e, op)
	}
	return log
}

// checkAgainstOracle generates one schedule from c, runs it on both engines
// and returns how many events fired.
func checkAgainstOracle(t *testing.T, c chooser) int {
	t.Helper()
	sc, got := recordScript(c)
	want := replayOnOracle(sc)
	if !reflect.DeepEqual(got, want) {
		n := len(got.Fired)
		if len(want.Fired) < n {
			n = len(want.Fired)
		}
		for i := 0; i < n; i++ {
			if got.Fired[i] != want.Fired[i] {
				t.Fatalf("firing %d: engine fired %+v, oracle %+v", i, got.Fired[i], want.Fired[i])
			}
		}
		t.Fatalf("engine and oracle disagree:\nengine %+v\noracle %+v", got, want)
	}
	return len(got.Fired)
}

// TestEngineMatchesOracle drives Engine and the old container/heap engine
// with the same seeded random schedules — equal-time ties, handlers that
// schedule at now, before and after the lane's tail, into the past and at
// +Inf, Run(horizon) with events exactly at the horizon — and requires the
// identical firing sequence, Pending() after every step, Run counts, clocks
// and refusals.
func TestEngineMatchesOracle(t *testing.T) {
	const seeds = 300
	fired := 0
	for seed := int64(1); seed <= seeds; seed++ {
		fired += checkAgainstOracle(t, rngChooser{stats.NewRNG(seed)})
	}
	if fired < 100*seeds {
		t.Fatalf("generated schedules are too small to mean anything: %d firings over %d seeds", fired, seeds)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 0, 1, 2, 2, 2, 3, 4, 1, 3, 3, 0, 0, 7, 0, 2, 6})
	f.Add([]byte("\x17\x05\x09\x01\x1f\x03\x02\x04\x03\x03\x07\x00\x00\x01\x08\x02\x05\x3f\x03\x06\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, &byteChooser{data})
	})
}

// TestEngineClosureSlotsReused: a fired closure's slot goes back on the free
// list, so a long run of fire-and-reschedule cycles keeps the slot table —
// and both queues — at the size of what is pending at once.
func TestEngineClosureSlotsReused(t *testing.T) {
	const chains, cycles = 8, 100_000
	e, o := NewEngine(), &oracleEngine{}
	var got, want []int
	for c := 0; c < chains; c++ {
		c := c
		n, on := 0, 0
		var tick, otick Handler
		tick = func(now float64) {
			got = append(got, c)
			if n++; n < cycles/chains {
				// Unequal periods interleave the chains and send some
				// reschedules to the heap and some to the lane.
				_ = e.ScheduleAfter(float64(1+c%3), tick)
			}
		}
		otick = func(now float64) {
			want = append(want, c)
			if on++; on < cycles/chains {
				_ = o.Schedule(o.Now()+float64(1+c%3), otick)
			}
		}
		if err := e.Schedule(0, tick); err != nil {
			t.Fatal(err)
		}
		if err := o.Schedule(0, otick); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.RunAll(); n != cycles {
		t.Fatalf("fired %d events, want %d", n, cycles)
	}
	for o.Step() {
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("firing order differs from the oracle's")
	}
	if len(e.closures) > chains || cap(e.heap) > 2*chains || len(e.lane) > 64 {
		t.Fatalf("%d events pending at once grew the engine to %d closure slots, heap cap %d, lane %d",
			chains, len(e.closures), cap(e.heap), len(e.lane))
	}
}

func TestEngineRejectsNaN(t *testing.T) {
	e := NewEngine()
	op := e.RegisterOp(func(float64, int64) {})
	nan := math.NaN()
	if err := e.Schedule(nan, func(float64) {}); err == nil {
		t.Fatal("Schedule accepted a NaN time")
	}
	if err := e.ScheduleAfter(math.Inf(1)-math.Inf(1), func(float64) {}); err == nil {
		t.Fatal("ScheduleAfter accepted an Inf-Inf delay")
	}
	if err := e.ScheduleOp(nan, op, 0); err == nil {
		t.Fatal("ScheduleOp accepted a NaN time")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d refused events were queued", e.Pending())
	}
	if err := e.ScheduleOp(1, op+1, 0); err == nil {
		t.Fatal("ScheduleOp accepted an unregistered kind")
	}
}

// TestEngineInfIsNever: +Inf is a legal "never" time. It orders after every
// finite event wherever it was filed, and Run stops before it.
func TestEngineInfIsNever(t *testing.T) {
	inf := math.Inf(1)
	e := NewEngine()
	var fired []float64
	note := func(now float64) { fired = append(fired, now) }
	// The first +Inf lands in the lane and pins its tail, so the finite
	// events after it go to the heap; the second +Inf ties the tail.
	for _, at := range []float64{inf, 3, 1, inf, 2} {
		if err := e.Schedule(at, note); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.Run(1e300); n != 3 || e.Pending() != 2 {
		t.Fatalf("Run fired %d events and left %d, want 3 and 2", n, e.Pending())
	}
	if e.Now() != 1e300 {
		t.Fatalf("clock %g after Run(1e300)", e.Now())
	}
	e.RunAll()
	if want := []float64{1, 2, 3, inf, inf}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}
