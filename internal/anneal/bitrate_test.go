package anneal

import (
	"math"
	"reflect"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/stats"
)

// bitrateProblem builds a small scalable-rate instance.
func bitrateProblem(t testing.TB, m, n int, storageGB float64) *BitRateProblem {
	t.Helper()
	c, err := core.NewCatalog(m, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         n,
		StoragePerServer:   storageGB * core.GB,
		BandwidthPerServer: core.Gbps,
		ArrivalRate:        10.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return &BitRateProblem{
		P:       p,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}
}

func TestBitRateProblemValidate(t *testing.T) {
	bp := bitrateProblem(t, 12, 3, 30)
	if err := bp.Validate(); err != nil {
		t.Fatal(err)
	}
	widest := make([]float64, math.MaxInt16+1)
	for i := range widest {
		widest[i] = float64(i+1) * core.Kbps
	}
	for _, c := range []struct {
		name  string
		rates []float64
		ok    bool
	}{
		{"paper set", []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps}, true},
		{"every int16 index", widest, true},
		{"empty", nil, false},
		{"descending", []float64{4 * core.Mbps, 2 * core.Mbps}, false},
		{"repeated", []float64{2 * core.Mbps, 2 * core.Mbps}, false},
		{"zero", []float64{0}, false},
		{"negative", []float64{-2 * core.Mbps}, false},
		{"NaN alone", []float64{math.NaN()}, false},
		{"NaN after a rate", []float64{2 * core.Mbps, math.NaN()}, false},
		{"NaN before a rate", []float64{math.NaN(), 2 * core.Mbps}, false},
		{"+Inf after a rate", []float64{2 * core.Mbps, math.Inf(1)}, false},
		{"-Inf", []float64{math.Inf(-1), 2 * core.Mbps}, false},
		{"past the int16 index", append(widest, float64(len(widest)+1)*core.Kbps), false},
	} {
		bad := *bp
		bad.RateSet = c.rates
		if err := bad.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok %v", c.name, err, c.ok)
		}
	}
	for _, n := range []int{maxServers, maxServers + 1} {
		p := *bp.P
		p.NumServers = n
		wide := *bp
		wide.P = &p
		if err := wide.Validate(); (err == nil) != (n <= maxServers) {
			t.Errorf("%d servers: Validate = %v, want ok %v", n, err, n <= maxServers)
		}
	}
	var nilP BitRateProblem
	if err := nilP.Validate(); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestOptimizeRejectsNonFiniteRates checks that a non-finite rate stops
// Optimize before it anneals, not with a NaN objective afterwards.
func TestOptimizeRejectsNonFiniteRates(t *testing.T) {
	for _, rates := range [][]float64{{2 * core.Mbps, math.NaN()}, {2 * core.Mbps, math.Inf(1)}, {math.NaN()}} {
		bp := bitrateProblem(t, 12, 3, 30)
		bp.RateSet = rates
		if _, _, err := bp.Optimize(Options{InitialTemp: 1, Cooling: 0.9, PlateauSteps: 10, MinTemp: 0.5, Seed: 1}, 1); err == nil {
			t.Errorf("rates %v: Optimize returned no error", rates)
		}
	}
}

func TestInitialSolutionFeasible(t *testing.T) {
	bp := bitrateProblem(t, 12, 3, 30)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	e := bp.Evaluate(init)
	if !e.Feasible() {
		t.Fatalf("initial solution infeasible: %+v", e)
	}
	if e.Degree != 1 {
		t.Fatalf("initial degree %g, want 1", e.Degree)
	}
	if e.MeanRateMbps != 2 {
		t.Fatalf("initial mean rate %g, want the lowest rate 2", e.MeanRateMbps)
	}
	if init.TotalCopies() != 12 {
		t.Fatalf("copies %d", init.TotalCopies())
	}
}

func TestInitialSolutionDoesNotFit(t *testing.T) {
	// 12 videos at 2 Mb/s × 90 min = 1.35 GB each; 4 per server on 3
	// servers needs 5.4 GB — give less.
	bp := bitrateProblem(t, 12, 3, 4)
	if _, err := bp.InitialSolution(); err == nil {
		t.Fatal("impossible initial solution accepted")
	}
}

func TestEvaluateOrphans(t *testing.T) {
	bp := bitrateProblem(t, 6, 3, 30)
	l := NewBitRateLayout(6, 3)
	// Only video 0 placed.
	l.SetRate(0, 0, 0)
	e := bp.Evaluate(l)
	if e.Orphans != 5 {
		t.Fatalf("orphans = %d", e.Orphans)
	}
	if e.Feasible() {
		t.Fatal("layout with orphans reported feasible")
	}
	if bp.Cost(l) < 1e6 {
		t.Fatal("orphan penalty missing")
	}
}

// TestEvaluateHonoursStdImbalance pins Objective.UseStdImbalance: with it
// set, Evaluate and the delta cache price the imbalance by Eq. 3's
// coefficient of variation of the per-server demand, not by Eq. 2.
func TestEvaluateHonoursStdImbalance(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 20)
	bp.Obj = core.Objective{Alpha: 1, Beta: 1, UseStdImbalance: true}
	l, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	l.SetRate(0, 1, 2) // a second, faster copy of the hottest title
	demand := make([]float64, bp.P.N())
	peak := bp.P.PeakRequests()
	for v := 0; v < l.M(); v++ {
		w := bp.P.Catalog[v].Popularity * peak / float64(l.Copies(v))
		l.EachCopy(v, func(s int, ri int16) { demand[s] += w * bp.RateSet[ri] })
	}
	want := core.ImbalanceCV(demand)
	if relClose(want, core.ImbalanceMax(demand), 1e-3) {
		t.Fatalf("Eq. 2 and Eq. 3 agree (%g) on the test layout; it cannot tell them apart", want)
	}
	e := bp.Evaluate(l)
	if !relClose(e.Imbalance, want, 1e-12) {
		t.Fatalf("Evaluate imbalance %.17g, want the coefficient of variation %.17g", e.Imbalance, want)
	}
	if obj := e.MeanRateMbps + e.Degree - e.Imbalance; e.Objective != obj {
		t.Fatalf("objective %.17g, want %.17g", e.Objective, obj)
	}
	if got := bp.ensureCache(l).eval().Imbalance; !relClose(got, want, 1e-12) {
		t.Fatalf("cached imbalance %.17g, want %.17g", got, want)
	}
}

func TestEvaluateViolationAccounting(t *testing.T) {
	bp := bitrateProblem(t, 4, 2, 3) // 3 GB per server
	l := NewBitRateLayout(4, 2)
	// Stuff server 0 with all four videos at the top rate:
	// 8 Mb/s × 90 min = 5.4 GB each, 21.6 GB total on a 3 GB server.
	for v := 0; v < 4; v++ {
		l.SetRate(v, 0, 3)
	}
	e := bp.Evaluate(l)
	if e.StorageViolation <= 0 {
		t.Fatal("storage violation not detected")
	}
	if e.Feasible() {
		t.Fatal("violating layout reported feasible")
	}
}

// TestNeighborPreservesFeasibility is the core repair property: starting
// from the feasible initial solution, thousands of random neighborhood moves
// must never leave the feasible region (orphans aside, which repair forbids).
func TestNeighborPreservesFeasibility(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 20)
	cur, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	for step := 0; step < 3000; step++ {
		cur = bp.Neighbor(cur, rng)
		e := bp.Evaluate(cur)
		if !e.Feasible() {
			t.Fatalf("step %d: infeasible state: %+v", step, e)
		}
		for v := 0; v < bp.P.M(); v++ {
			if cur.Copies(v) < 1 {
				t.Fatalf("step %d: video %d lost its last copy", step, v)
			}
		}
	}
}

func TestNeighborDoesNotMutateArgument(t *testing.T) {
	bp := bitrateProblem(t, 10, 3, 20)
	cur, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := bp.Clone(cur)
	rng := stats.NewRNG(7)
	for i := 0; i < 200; i++ {
		bp.Neighbor(cur, rng)
	}
	for v := 0; v < cur.M(); v++ {
		for s := 0; s < cur.N(); s++ {
			if cur.Rate(v, s) != snapshot.Rate(v, s) {
				t.Fatal("Neighbor mutated its argument")
			}
		}
	}
}

func TestOptimizeImprovesObjective(t *testing.T) {
	bp := bitrateProblem(t, 15, 4, 25)
	init, err := bp.InitialSolution()
	if err != nil {
		t.Fatal(err)
	}
	before := bp.Evaluate(init)
	opts := DefaultOptions()
	opts.Seed = 9
	opts.MaxSteps = 30000
	best, after, err := bp.Optimize(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Feasible() {
		t.Fatalf("annealed state infeasible: %+v", after)
	}
	if after.Objective <= before.Objective {
		t.Fatalf("annealing did not improve: %g → %g", before.Objective, after.Objective)
	}
	if best.TotalCopies() < bp.P.M() {
		t.Fatal("annealed layout lost videos")
	}
}

func TestOptimizeParallelChains(t *testing.T) {
	bp := bitrateProblem(t, 10, 3, 15)
	opts := DefaultOptions()
	opts.Seed = 4
	opts.MaxSteps = 8000
	_, e, err := bp.Optimize(opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Feasible() {
		t.Fatal("parallel optimize produced infeasible state")
	}
}

func TestBitRateLayoutClone(t *testing.T) {
	l := NewBitRateLayout(3, 2)
	l.SetRate(1, 1, 2)
	c := l.clone()
	c.SetRate(1, 1, 0)
	if l.Rate(1, 1) != 2 {
		t.Fatal("clone shares storage")
	}
	if l.Copies(1) != 1 || l.Copies(0) != 0 {
		t.Fatal("Copies miscounts")
	}
	if l.TotalCopies() != 1 {
		t.Fatal("TotalCopies miscounts")
	}
	// The shared backing array is an allocation detail: a layout built by
	// hand, or with a row grown out of it, clones cell for cell all the same.
	h := NewBitRateLayout(2, 2)
	h.SetRate(0, 1, 1)
	h.SetRate(1, 0, 0)
	l.SetRate(2, 0, 3)
	for _, src := range []*BitRateLayout{h, l} {
		if c := src.clone(); !reflect.DeepEqual(snapshotRateIdx(c), snapshotRateIdx(src)) {
			t.Fatalf("clone of %v gave %v", snapshotRateIdx(src), snapshotRateIdx(c))
		}
	}
}

func TestQualityFollowsPopularity(t *testing.T) {
	// After annealing a tight instance, the hottest tier should end up with
	// at least as many copies as the coldest tier (availability follows
	// popularity through the load term).
	bp := bitrateProblem(t, 20, 4, 15)
	opts := DefaultOptions()
	opts.Seed = 21
	opts.MaxSteps = 40000
	best, _, err := bp.Optimize(opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	cold := 0
	for v := 0; v < 5; v++ {
		hot += best.Copies(v)
	}
	for v := 15; v < 20; v++ {
		cold += best.Copies(v)
	}
	if hot < cold {
		t.Fatalf("hot tier has %d copies, cold tier %d", hot, cold)
	}
}

func TestRuntimeConversion(t *testing.T) {
	bp := bitrateProblem(t, 12, 3, 30)
	opts := DefaultOptions()
	opts.Seed = 6
	opts.MaxSteps = 10000
	best, _, err := bp.Optimize(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := bp.Runtime(best)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.Validate(bp.P); err != nil {
		t.Fatal(err)
	}
	// One rate per copy, each the annealed copy's rate from the set.
	for v, servers := range layout.Servers {
		if len(layout.Rates[v]) != len(servers) {
			t.Fatalf("video %d has %d rates for %d servers", v, len(layout.Rates[v]), len(servers))
		}
		for k, s := range servers {
			ri := best.Rate(v, s)
			if ri < 0 {
				t.Fatalf("video %d placed on server %d, which the annealed layout does not use", v, s)
			}
			if got := layout.Rates[v][k]; got != bp.RateSet[ri] {
				t.Fatalf("copy (%d,%d) at %g, want %g", v, s, got, bp.RateSet[ri])
			}
		}
	}
	// The conversion must preserve the copy count.
	if layout.TotalReplicas() != best.TotalCopies() {
		t.Fatalf("conversion changed copies: %d vs %d", layout.TotalReplicas(), best.TotalCopies())
	}
}

func TestRuntimeRejectsOrphans(t *testing.T) {
	bp := bitrateProblem(t, 4, 2, 30)
	l := NewBitRateLayout(4, 2)
	l.SetRate(0, 0, 0) // videos 1..3 have no copy
	if _, err := bp.Runtime(l); err == nil {
		t.Fatal("orphaned videos accepted")
	}
}
