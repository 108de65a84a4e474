package sim

import (
	"testing"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i, at := range []float64{5, 1, 3, 2, 4} {
		i, at := i, at
		if err := e.Schedule(at, func(float64) { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	want := []int{1, 3, 2, 4, 0}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired order %v, want %v", fired, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want 5", e.Now())
	}
}

func TestEngineFIFOTies(t *testing.T) {
	e := NewEngine()
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.Schedule(1, func(float64) { fired = append(fired, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	for i := range fired {
		if fired[i] != i {
			t.Fatalf("ties not FIFO: %v", fired)
		}
	}
}

func TestEngineRejectsPast(t *testing.T) {
	e := NewEngine()
	if err := e.Schedule(2, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if err := e.Schedule(1, func(float64) {}); err == nil {
		t.Fatal("scheduling in the past accepted")
	}
}

func TestEngineScheduleAfter(t *testing.T) {
	e := NewEngine()
	var at float64
	if err := e.Schedule(3, func(now float64) {
		if err := e.ScheduleAfter(2, func(now2 float64) { at = now2 }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if at != 5 {
		t.Fatalf("chained event fired at %g, want 5", at)
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		if err := e.Schedule(at, func(now float64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	n := e.Run(2.5)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("Run(2.5) fired %d events", n)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock after horizon = %g, want 2.5", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	// Events exactly at the horizon fire.
	n = e.Run(4)
	if n != 2 || e.Now() != 4 {
		t.Fatalf("Run(4) fired %d, clock %g", n, e.Now())
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.RunAll() != 0 {
		t.Fatal("RunAll on empty queue fired something")
	}
}

func TestEngineHandlersCanSchedule(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func(now float64)
	tick = func(now float64) {
		count++
		if count < 5 {
			if err := e.ScheduleAfter(1, tick); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Schedule(0, tick); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if count != 5 {
		t.Fatalf("recursive scheduling fired %d times", count)
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %g", e.Now())
	}
}

// BenchmarkEngineScheduleAndRun schedules and fires 1000 events on a fresh
// engine, as closures and as events of a registered kind.
func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			for j := 0; j < 1000; j++ {
				_ = e.Schedule(float64(j%37), func(float64) {})
			}
			e.RunAll()
		}
	})
	b.Run("op", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := NewEngine()
			op := e.RegisterOp(func(float64, int64) {})
			for j := 0; j < 1000; j++ {
				_ = e.ScheduleOp(float64(j%37), op, int64(j))
			}
			e.RunAll()
		}
	})
}
