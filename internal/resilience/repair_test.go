package resilience

import (
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
)

// runScheduler collects scheduled callbacks and fires them in delay order —
// a miniature stand-in for the simulator's event engine.
type fakeSchedule struct {
	fns []func(now float64)
}

func (f *fakeSchedule) schedule(delay float64, fn func(now float64)) {
	f.fns = append(f.fns, fn)
}

func (f *fakeSchedule) fireAll() {
	for len(f.fns) > 0 {
		fn := f.fns[0]
		f.fns = f.fns[1:]
		fn(0)
	}
}

func repairPolicy() Policy {
	return (Policy{Repair: true, RepairRate: 4 * core.Mbps}).WithDefaults()
}

func TestRepairerReplicatesAfterFailure(t *testing.T) {
	st := newState(t, 0) // no backbone: copies load the source's outgoing link
	p := st.Problem()
	r, err := NewRepairer(p, repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if r.Interval() != 60 {
		t.Fatalf("interval %g", r.Interval())
	}
	r.Observe(0) // no-op, must not panic

	// Server 1 dies: v0 drops to one live replica (server 0), v2 to zero.
	st.FailServer(1)
	fs := &fakeSchedule{}
	r.Tick(60, st, fs.schedule)
	// v0 can be repaired (copy 0 → 2); v2 has no live source and is skipped.
	if r.Started() != 1 {
		t.Fatalf("started %d copies, want 1 (v0)", r.Started())
	}
	if r.Skipped() == 0 {
		t.Fatal("fully-down v2 not recorded as skipped")
	}
	// The in-flight copy loads the source's outgoing link.
	if st.UsedBandwidth(0) != 4*core.Mbps {
		t.Fatalf("source link carries %g during the copy", st.UsedBandwidth(0))
	}
	fs.fireAll()
	if r.Completed() != 1 {
		t.Fatalf("completed %d copies, want 1", r.Completed())
	}
	if st.UsedBandwidth(0) != 0 {
		t.Fatal("copy bandwidth not released")
	}
	if st.Replicas(0) != 3 || !holds(st, 0, 2) {
		t.Fatalf("v0 replicas %d on %v, want a new copy on server 2", st.Replicas(0), st.Holders(0))
	}
	// Once every video is back at (or can't reach) the threshold, a tick
	// starts nothing new.
	fs2 := &fakeSchedule{}
	r.Tick(120, st, fs2.schedule)
	if r.Started() != 1 {
		t.Fatalf("repair re-copied a healthy video: started %d", r.Started())
	}
}

func TestRepairerUsesBackboneWhenAvailable(t *testing.T) {
	st := newState(t, 100*core.Mbps)
	r, err := NewRepairer(st.Problem(), repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(1)
	fs := &fakeSchedule{}
	r.Tick(60, st, fs.schedule)
	if r.Started() != 1 {
		t.Fatalf("started %d", r.Started())
	}
	if st.BackboneFree() != 96*core.Mbps {
		t.Fatalf("backbone free %g during the copy", st.BackboneFree())
	}
	if st.UsedBandwidth(0) != 0 {
		t.Fatal("backbone copy charged the outgoing link")
	}
	fs.fireAll()
	if st.BackboneFree() != 100*core.Mbps {
		t.Fatal("backbone not released")
	}
	if r.Completed() != 1 {
		t.Fatalf("completed %d", r.Completed())
	}
}

func TestRepairerAbortsWhenSourceDies(t *testing.T) {
	st := newState(t, 0)
	r, err := NewRepairer(st.Problem(), repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(1)
	fs := &fakeSchedule{}
	r.Tick(60, st, fs.schedule)
	if r.Started() != 1 {
		t.Fatalf("started %d", r.Started())
	}
	st.FailServer(0) // the copy's source dies mid-transfer
	fs.fireAll()
	if r.Completed() != 0 || r.Aborted() != 1 {
		t.Fatalf("completed %d aborted %d, want 0/1", r.Completed(), r.Aborted())
	}
	if st.Replicas(0) != 2 {
		t.Fatal("aborted copy still landed")
	}
}

func TestRepairerCopyRates(t *testing.T) {
	p, l := testProblem(t, 0), testLayout(t)
	rates := [][]float64{
		{4 * core.Mbps, 2 * core.Mbps, 0},
		{4 * core.Mbps, 0, 4 * core.Mbps},
		{0, 4 * core.Mbps, 0},
		{0, 0, 4 * core.Mbps},
	}
	st, err := cluster.New(p, l, cluster.WithCopyRates(rates))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRepairer(p, repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(0)
	fs := &fakeSchedule{}
	r.Tick(60, st, fs.schedule)
	fs.fireAll()
	// v0's surviving copy is the 2 Mb/s one on server 1; the repair clone
	// inherits that rate on server 2.
	if !holds(st, 0, 2) {
		t.Fatalf("no repaired copy of v0: holders %v", st.Holders(0))
	}
	if got := st.RateOf(0, 2); got != 2*core.Mbps {
		t.Fatalf("repaired copy rate %g, want the source's 2 Mb/s", got)
	}
}

func TestRepairerValidation(t *testing.T) {
	if _, err := NewRepairer(nil, repairPolicy()); err == nil {
		t.Fatal("nil problem accepted")
	}
	p := testProblem(t, 0)
	bad := repairPolicy()
	bad.RepairInterval = -1
	if _, err := NewRepairer(p, bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// TestRepairScanStopsAtMaxPerTick: with RepairMaxPerTick 1 and two
// repairable videos, one Scan starts exactly one copy — the hotter video's.
func TestRepairScanStopsAtMaxPerTick(t *testing.T) {
	st := newState(t, 0)
	pol := repairPolicy()
	pol.RepairMaxPerTick = 1
	r, err := NewRepairer(st.Problem(), pol)
	if err != nil {
		t.Fatal(err)
	}
	st.FailServer(0) // v0 and v1 each drop to one live replica
	copies := r.Scan(st, nil)
	if len(copies) != 1 || r.Started() != 1 {
		t.Fatalf("started %d copies (%+v), want exactly 1", r.Started(), copies)
	}
	if copies[0].Video != 0 {
		t.Fatalf("repaired v%d first, want the hotter v0", copies[0].Video)
	}
}

// TestRepairSourceTieGoesToEarlierServer: v0's two holders, servers 0 and
// 1, have equal free bandwidth, so the copy reads from server 0.
func TestRepairSourceTieGoesToEarlierServer(t *testing.T) {
	st := newState(t, 0)
	r, err := NewRepairer(st.Problem(), repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeBandwidth(0) != st.FreeBandwidth(1) {
		t.Fatal("fixture: holders' free bandwidth differs")
	}
	c, ok := r.start(st, 0)
	if !ok {
		t.Fatal("copy of v0 not started")
	}
	if c.Src != 0 {
		t.Fatalf("source server %d, want the earlier tied holder 0", c.Src)
	}
}

// TestRepairDestinationTieGoesToEarlierServer: v2's copy can land on server
// 0 or server 2, each with one free slot and equal free bandwidth, so it
// lands on server 0.
func TestRepairDestinationTieGoesToEarlierServer(t *testing.T) {
	st := newState(t, 0)
	r, err := NewRepairer(st.Problem(), repairPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if st.FreeBandwidth(0) != st.FreeBandwidth(2) {
		t.Fatal("fixture: destinations' free bandwidth differs")
	}
	c, ok := r.start(st, 2)
	if !ok {
		t.Fatal("copy of v2 not started")
	}
	if c.Src != 1 || c.Dst != 0 {
		t.Fatalf("copy %d → %d, want 1 → the earlier tied destination 0", c.Src, c.Dst)
	}
}
