package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
)

// lockstepProblem is a small saturable cluster where least-loaded and static
// round-robin genuinely disagree: 3 servers, 4 videos, hot title everywhere.
func lockstepProblem(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	catalog, err := core.NewCatalog(4, 0.75, 4e6, 600)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         3,
		StoragePerServer:   1e12,
		BandwidthPerServer: 20e6,
		ArrivalRate:        0.5, // saturating: rejections happen, policies matter
		PeakPeriod:         600,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	layout := &core.Layout{
		Servers: [][]int{{0, 1, 2}, {0}, {1}, {2}},
	}
	return p, layout
}

func lockstepCandidates() []Candidate {
	return []Candidate{
		{Name: "static-rr", NewScheduler: func() cluster.Scheduler { return cluster.StaticRoundRobin{} }},
		{Name: "least-loaded", NewScheduler: func() cluster.Scheduler { return cluster.LeastLoaded{} }},
	}
}

func TestLockstepReferenceSelfRegretIsZero(t *testing.T) {
	p, layout := lockstepProblem(t)
	ls := &Lockstep{
		Problem: p, Layout: layout,
		Candidates: []Candidate{
			{Name: "ref", NewScheduler: func() cluster.Scheduler { return cluster.StaticRoundRobin{} }},
			{Name: "self", NewScheduler: func() cluster.Scheduler { return cluster.StaticRoundRobin{} }},
		},
		Reference: "ref",
		Runs:      3, Seed: 42,
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if len(c.Divergences) != 0 {
			t.Fatalf("candidate %q diverged %d times from an identical policy", c.Name, len(c.Divergences))
		}
		for rep, total := range c.RepRegret {
			if total != 0 {
				t.Fatalf("candidate %q has regret %g at replication %d", c.Name, total, rep)
			}
		}
		for rep, curve := range c.Curves {
			for k, v := range curve {
				if v != 0 {
					t.Fatalf("candidate %q curve nonzero (%g) at rep %d seq %d", c.Name, v, rep, k)
				}
			}
		}
	}
	if res.Ref().Regret.Mean() != 0 || res.Ref().Regret.CI95() != 0 {
		t.Fatal("reference self-regret summary is not exactly zero")
	}
}

func TestLockstepFindsDivergences(t *testing.T) {
	p, layout := lockstepProblem(t)
	ls := &Lockstep{
		Problem: p, Layout: layout,
		Candidates: lockstepCandidates(),
		Reference:  "static-rr",
		Runs:       2, Seed: 7,
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	cand := &res.Candidates[1]
	if len(cand.Divergences) == 0 {
		t.Fatal("least-loaded never diverged from static round-robin on a saturating workload")
	}
	first := cand.FirstDivergence()
	if first == nil || first.Why == "" {
		t.Fatal("first divergence carries no explanation")
	}
	// Divergences are ordered by (replication, sequence).
	prevRep, prevSeq := -1, -1
	for _, d := range cand.Divergences {
		if d.Rep < prevRep || (d.Rep == prevRep && d.Seq <= prevSeq) {
			t.Fatalf("divergences out of order: (%d,%d) after (%d,%d)", d.Rep, d.Seq, prevRep, prevSeq)
		}
		prevRep, prevSeq = d.Rep, d.Seq
		if d.Ref.Seq != d.Got.Seq {
			t.Fatalf("divergence pairs misaligned decisions: ref seq %d vs got seq %d", d.Ref.Seq, d.Got.Seq)
		}
	}
	// The reference candidate itself must be divergence-free with zero regret.
	ref := res.Ref()
	if len(ref.Divergences) != 0 || ref.Regret.Mean() != 0 {
		t.Fatalf("reference vs itself: %d divergences, regret %g", len(ref.Divergences), ref.Regret.Mean())
	}
	// Curves end at the per-replication totals.
	for rep, curve := range cand.Curves {
		if len(curve) != res.Arrivals[rep] {
			t.Fatalf("rep %d curve has %d points for %d arrivals", rep, len(curve), res.Arrivals[rep])
		}
		if got := curve[len(curve)-1]; got != cand.RepRegret[rep] {
			t.Fatalf("rep %d curve ends at %g, total regret %g", rep, got, cand.RepRegret[rep])
		}
	}
}

func TestLockstepWorkerCountIndependent(t *testing.T) {
	p, layout := lockstepProblem(t)
	run := func(workers int) *LockstepResult {
		ls := &Lockstep{
			Problem: p, Layout: layout,
			Candidates: lockstepCandidates(),
			Runs:       3, Seed: 11, Workers: workers,
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{4, 16} {
		got := run(workers)
		for ci := range base.Candidates {
			b, g := &base.Candidates[ci], &got.Candidates[ci]
			if !reflect.DeepEqual(b.Journals, g.Journals) {
				t.Fatalf("candidate %q journals differ between 1 and %d workers", b.Name, workers)
			}
			if !reflect.DeepEqual(b.Curves, g.Curves) {
				t.Fatalf("candidate %q regret curves differ between 1 and %d workers", b.Name, workers)
			}
			if !reflect.DeepEqual(b.Divergences, g.Divergences) {
				t.Fatalf("candidate %q divergences differ between 1 and %d workers", b.Name, workers)
			}
		}
	}
}

func TestLockstepRepeatedRunsIdentical(t *testing.T) {
	p, layout := lockstepProblem(t)
	run := func() *LockstepResult {
		ls := &Lockstep{
			Problem: p, Layout: layout,
			Candidates: lockstepCandidates(),
			Runs:       2, Seed: 5,
		}
		res, err := ls.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for ci := range a.Candidates {
		if !reflect.DeepEqual(a.Candidates[ci].Journals, b.Candidates[ci].Journals) {
			t.Fatalf("candidate %q journals differ across repeated runs", a.Candidates[ci].Name)
		}
	}
}

func TestLockstepSharedTraceAcrossCandidates(t *testing.T) {
	p, layout := lockstepProblem(t)
	ls := &Lockstep{
		Problem: p, Layout: layout,
		Candidates: lockstepCandidates(),
		Runs:       2, Seed: 3,
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Journals align: same length, same (time, video) stream per replication.
	for rep := 0; rep < 2; rep++ {
		a := res.Candidates[0].Journals[rep]
		b := res.Candidates[1].Journals[rep]
		if len(a) != len(b) || len(a) != res.Arrivals[rep] {
			t.Fatalf("rep %d journal lengths %d vs %d (arrivals %d)", rep, len(a), len(b), res.Arrivals[rep])
		}
		for k := range a {
			if a[k].Time != b[k].Time || a[k].Video != b[k].Video || a[k].Seq != b[k].Seq {
				t.Fatalf("rep %d decision %d requests differ across candidates", rep, k)
			}
		}
	}
}

func TestLockstepUnknownReference(t *testing.T) {
	p, layout := lockstepProblem(t)
	ls := &Lockstep{
		Problem: p, Layout: layout,
		Candidates: lockstepCandidates(),
		Reference:  "no-such-policy",
		Runs:       1, Seed: 1,
	}
	if _, err := ls.Run(); err == nil {
		t.Fatal("unknown reference accepted")
	}
}

func TestLockstepReportAndJournal(t *testing.T) {
	p, layout := lockstepProblem(t)
	ls := &Lockstep{
		Problem: p, Layout: layout,
		Candidates: lockstepCandidates(),
		Runs:       2, Seed: 9,
	}
	res, err := ls.Run()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	em := &Emitter{Out: &out, CSVDir: t.TempDir()}
	if err := res.Report(em, 50); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static-rr (ref)", "least-loaded", "regret_mean", "divergences"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("report output missing %q:\n%s", want, out.String())
		}
	}

	var buf bytes.Buffer
	if err := res.WriteJournal(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reference  string `json:"reference"`
		Candidates []struct {
			Name        string `json:"name"`
			Divergences []struct {
				Why string `json:"why"`
			} `json:"divergences"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("journal is not valid JSON: %v", err)
	}
	if doc.Reference != "static-rr" {
		t.Fatalf("journal reference %q", doc.Reference)
	}
	if len(doc.Candidates) != 2 {
		t.Fatalf("journal has %d candidates", len(doc.Candidates))
	}
	if len(doc.Candidates[0].Divergences) != 0 {
		t.Fatal("reference candidate journals divergences against itself")
	}
	if len(doc.Candidates[1].Divergences) == 0 {
		t.Fatal("candidate journals no divergences")
	}
}
