package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestImbalanceMaxKnownValues(t *testing.T) {
	cases := []struct {
		loads []float64
		want  float64
	}{
		{nil, 0},
		{[]float64{5, 5, 5}, 0},
		{[]float64{0, 0, 0}, 0},
		{[]float64{2, 0}, 1},       // mean 1, max 2 → (2-1)/1
		{[]float64{4, 0, 0, 0}, 3}, // one server carries all → N−1
		{[]float64{3, 2, 1}, 0.5},  // mean 2, max 3
		{[]float64{10, 10, 10, 2}, 10.0/8 - 1},
	}
	for _, tc := range cases {
		if got := ImbalanceMax(tc.loads); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("ImbalanceMax(%v) = %g, want %g", tc.loads, got, tc.want)
		}
	}
}

func TestImbalanceStdKnownValues(t *testing.T) {
	if got := ImbalanceStd([]float64{1, 1, 1, 1}); got != 0 {
		t.Fatalf("std of equal loads = %g", got)
	}
	// Loads {2, 4}: mean 3, population std = 1.
	if got := ImbalanceStd([]float64{2, 4}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ImbalanceStd({2,4}) = %g, want 1", got)
	}
	if got := ImbalanceStd(nil); got != 0 {
		t.Fatalf("empty = %g", got)
	}
}

func TestImbalanceCV(t *testing.T) {
	if got := ImbalanceCV([]float64{2, 4}); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("CV({2,4}) = %g, want 1/3", got)
	}
	if got := ImbalanceCV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV of zero loads = %g", got)
	}
	if got := ImbalanceCV(nil); got != 0 {
		t.Fatalf("CV(nil) = %g", got)
	}
}

// TestImbalanceMaxProperties: non-negative, zero for uniform vectors,
// invariant under positive scaling (it is a relative measure), and bounded by
// N−1.
func TestImbalanceMaxProperties(t *testing.T) {
	f := func(raw []uint8, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return ImbalanceMax(nil) == 0
		}
		loads := make([]float64, len(raw))
		allZero := true
		for i, r := range raw {
			loads[i] = float64(r)
			if r != 0 {
				allZero = false
			}
		}
		l := ImbalanceMax(loads)
		if l < 0 {
			return false
		}
		if allZero && l != 0 {
			return false
		}
		if l > float64(len(loads)-1)+1e-9 {
			return false
		}
		scale := float64(scaleRaw%10) + 1
		scaled := make([]float64, len(loads))
		for i := range loads {
			scaled[i] = loads[i] * scale
		}
		return math.Abs(ImbalanceMax(scaled)-l) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestImbalanceOrderInvariance: both definitions must not depend on server
// order.
func TestImbalanceOrderInvariance(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		loads := make([]float64, len(raw))
		for i, r := range raw {
			loads[i] = float64(r)
		}
		rev := make([]float64, len(loads))
		for i := range loads {
			rev[i] = loads[len(loads)-1-i]
		}
		return math.Abs(ImbalanceMax(loads)-ImbalanceMax(rev)) < 1e-12 &&
			math.Abs(ImbalanceStd(loads)-ImbalanceStd(rev)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectiveEvaluate(t *testing.T) {
	p := tinyProblem(t)
	l := tinyLayout(t)
	o := Objective{Alpha: 2, Beta: 3}
	c := o.Evaluate(p, l)
	if math.Abs(c.MeanBitRateMbps-4) > 1e-12 {
		t.Fatalf("mean rate = %g, want 4 Mb/s", c.MeanBitRateMbps)
	}
	if math.Abs(c.ReplicationDegree-4.0/3) > 1e-12 {
		t.Fatalf("degree = %g", c.ReplicationDegree)
	}
	// Loads 55/45: mean 50, Eq.2 L = 0.1.
	if math.Abs(c.Imbalance-0.1) > 1e-12 {
		t.Fatalf("imbalance = %g, want 0.1", c.Imbalance)
	}
	want := 4 + 2*4.0/3 - 3*0.1
	if math.Abs(c.Value-want) > 1e-12 {
		t.Fatalf("objective = %g, want %g", c.Value, want)
	}
}

func TestObjectiveStdVariant(t *testing.T) {
	p := tinyProblem(t)
	l := tinyLayout(t)
	o := Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
	c := o.Evaluate(p, l)
	// Loads 55/45: mean 50, population std 5, CV 0.1.
	if math.Abs(c.Imbalance-0.1) > 1e-12 {
		t.Fatalf("CV imbalance = %g, want 0.1", c.Imbalance)
	}
}

func TestDefaultObjective(t *testing.T) {
	o := DefaultObjective()
	if o.Alpha != 1 || o.Beta != 1 || o.UseStdImbalance {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestObjectiveMonotoneInReplication(t *testing.T) {
	// With balanced placements, adding replicas must not lower the
	// objective: degree term grows, imbalance cannot grow past its bound.
	p := tinyProblem(t)
	low := tinyLayout(t)
	high := NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}} {
		if err := high.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	p.StoragePerServer = 3 * p.Catalog[0].SizeBytes()
	o := DefaultObjective()
	if o.Evaluate(p, high).Value <= o.Evaluate(p, low).Value {
		t.Fatal("full replication scored below partial replication on a balanced instance")
	}
}
