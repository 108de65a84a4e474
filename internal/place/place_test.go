package place

import (
	"math"
	"strings"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/replicate"
	"vodcluster/internal/stats"
)

// makeProblem builds a fixed-rate instance: m videos, n servers, skew theta,
// storage for capPerServer replicas each.
func makeProblem(t testing.TB, m, n int, theta float64, capPerServer int) *core.Problem {
	t.Helper()
	c, err := core.NewCatalog(m, theta, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         n,
		StoragePerServer:   float64(capPerServer) * c[0].SizeBytes(),
		BandwidthPerServer: 1.8 * core.Gbps,
		ArrivalRate:        40.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func allPlacers() []Placer {
	return []Placer{SmallestLoadFirst{}, RoundRobin{}, Greedy{}, Random{Seed: 3}}
}

func TestPlacersSatisfyConstraints(t *testing.T) {
	p := makeProblem(t, 30, 6, 0.75, 8)
	r, err := replicate.BoundedAdams{}.Replicate(p, 44)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range allPlacers() {
		layout, err := pl.Place(p, r)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if err := layout.Validate(p); err != nil {
			t.Fatalf("%s produced invalid layout: %v", pl.Name(), err)
		}
		for v, want := range r {
			if len(layout.Servers[v]) != want {
				t.Fatalf("%s changed the replica vector at video %d", pl.Name(), v)
			}
		}
	}
}

func TestPlacersRejectBadVectors(t *testing.T) {
	p := makeProblem(t, 10, 4, 0.75, 3)
	for _, pl := range allPlacers() {
		if _, err := pl.Place(p, []int{1, 1}); err == nil {
			t.Fatalf("%s: wrong-length vector accepted", pl.Name())
		}
		bad := make([]int, 10)
		for i := range bad {
			bad[i] = 1
		}
		bad[0] = 5 // exceeds N
		if _, err := pl.Place(p, bad); err == nil {
			t.Fatalf("%s: r > N accepted", pl.Name())
		}
		bad[0] = 0
		if _, err := pl.Place(p, bad); err == nil {
			t.Fatalf("%s: r = 0 accepted", pl.Name())
		}
		over := make([]int, 10)
		for i := range over {
			over[i] = 2 // 20 replicas, capacity 12
		}
		if _, err := pl.Place(p, over); err == nil {
			t.Fatalf("%s: storage-infeasible vector accepted", pl.Name())
		}
	}
}

// TestSLFBoundTheorem verifies Theorem 4.2 on random instances under the
// paper's setting (total replicas a multiple of N, i.e. only full placement
// rounds): the Eq. 3 load imbalance of a smallest-load-first placement never
// exceeds max w − min w.
func TestSLFBoundTheorem(t *testing.T) {
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 200; trial++ {
		m := 5 + rng.Intn(60)
		n := 2 + rng.Intn(10)
		capPer := 1 + (m+n-1)/n + rng.Intn(5)
		theta := 0.2 + rng.Float64()
		p := makeProblem(t, m, n, theta, capPer)
		budget := m + rng.Intn(n*capPer-m+1)
		if budget > m*n {
			budget = m * n
		}
		budget -= budget % n // paper setting: full rounds only
		if budget < m {
			budget += n
		}
		if budget > n*capPer || budget > m*n {
			continue
		}
		r, err := replicate.BoundedAdams{}.Replicate(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := SmallestLoadFirst{}.Place(p, r)
		if err != nil {
			t.Fatalf("trial %d (m=%d n=%d budget=%d): %v", trial, m, n, budget, err)
		}
		loads := layout.ServerLoads(p)
		bound := TheoremBound(p, r)
		if got := core.ImbalanceStd(loads); got > bound+1e-9 {
			t.Fatalf("trial %d: Eq.3 L = %g exceeds Theorem 4.2 bound %g", trial, got, bound)
		}
	}
}

// TestSLFGeneralBound covers arbitrary budgets: with the partial-round
// correction term, the bound holds for any replica total.
func TestSLFGeneralBound(t *testing.T) {
	rng := stats.NewRNG(4321)
	for trial := 0; trial < 300; trial++ {
		m := 5 + rng.Intn(60)
		n := 2 + rng.Intn(10)
		capPer := 1 + (m+n-1)/n + rng.Intn(5)
		theta := 0.2 + rng.Float64()
		p := makeProblem(t, m, n, theta, capPer)
		budget := m + rng.Intn(n*capPer-m+1)
		if budget > m*n {
			budget = m * n
		}
		r, err := replicate.BoundedAdams{}.Replicate(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := SmallestLoadFirst{}.Place(p, r)
		if err != nil {
			t.Fatalf("trial %d (m=%d n=%d budget=%d): %v", trial, m, n, budget, err)
		}
		loads := layout.ServerLoads(p)
		bound := GeneralBound(p, r)
		if got := core.ImbalanceStd(loads); got > bound+1e-9 {
			t.Fatalf("trial %d: Eq.3 L = %g exceeds general bound %g", trial, got, bound)
		}
		if GeneralBound(p, r) < TheoremBound(p, r)-1e-12 {
			t.Fatal("general bound below theorem bound")
		}
	}
}

// TestSLFStorageBalanced: the round discipline keeps per-server replica
// counts within one of each other.
func TestSLFStorageBalanced(t *testing.T) {
	p := makeProblem(t, 50, 8, 0.75, 10)
	r, err := replicate.BoundedAdams{}.Replicate(p, 77)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := SmallestLoadFirst{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, p.N())
	for _, servers := range layout.Servers {
		for _, s := range servers {
			counts[s]++
		}
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Fatalf("round discipline broken: replica counts %v", counts)
	}
}

// TestSLFStress hammers the swap-repair path with thousands of random
// feasible instances; every one must place successfully and validate.
func TestSLFStress(t *testing.T) {
	rng := stats.NewRNG(77)
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(20)
		n := 2 + rng.Intn(8)
		capPer := (m + n - 1) / n
		if capPer < 1 {
			capPer = 1
		}
		capPer += rng.Intn(4)
		if capPer > m { // no point storing more replicas than videos
			capPer = m
		}
		p := makeProblem(t, m, n, rng.Float64(), capPer)
		maxBudget := n * capPer
		if maxBudget > m*n {
			maxBudget = m * n
		}
		budget := m + rng.Intn(maxBudget-m+1)
		r, err := replicate.BoundedAdams{}.Replicate(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := SmallestLoadFirst{}.Place(p, r)
		if err != nil {
			t.Fatalf("trial %d (m=%d n=%d capPer=%d budget=%d): %v", trial, m, n, capPer, budget, err)
		}
		if err := layout.Validate(p); err != nil {
			t.Fatalf("trial %d: invalid layout: %v", trial, err)
		}
	}
}

// TestSLFBeatsRoundRobinOnSkewedLoad: with a hot catalog and low degree,
// smallest-load-first must balance at least as well as round-robin, measured
// by Eq. 2.
func TestSLFBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	p := makeProblem(t, 100, 8, 1.0, 15)
	r, err := replicate.Classification{}.Replicate(p, 120)
	if err != nil {
		t.Fatal(err)
	}
	slf, err := SmallestLoadFirst{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobin{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	lSLF := core.ImbalanceMax(slf.ServerLoads(p))
	lRR := core.ImbalanceMax(rr.ServerLoads(p))
	if lSLF > lRR+1e-9 {
		t.Fatalf("SLF imbalance %g worse than round-robin %g", lSLF, lRR)
	}
}

func TestRoundRobinSpreadsGroups(t *testing.T) {
	// With M = N and one replica each, round-robin puts video i on server i.
	p := makeProblem(t, 4, 4, 0.75, 1)
	r := []int{1, 1, 1, 1}
	layout, err := RoundRobin{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if layout.Servers[v][0] != v {
			t.Fatalf("round-robin order broken: video %d on %v", v, layout.Servers[v])
		}
	}
}

func TestRandomPlacementDeterministicPerSeed(t *testing.T) {
	p := makeProblem(t, 20, 5, 0.75, 6)
	r, err := replicate.BoundedAdams{}.Replicate(p, 28)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Random{Seed: 9}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{Seed: 9}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Servers {
		for k := range a.Servers[v] {
			if a.Servers[v][k] != b.Servers[v][k] {
				t.Fatal("same seed produced different layouts")
			}
		}
	}
	c, err := Random{Seed: 10}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Servers {
		for k := range a.Servers[v] {
			if a.Servers[v][k] != c.Servers[v][k] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical layouts (suspicious)")
	}
}

func TestGreedyMatchesSLFBalanceClosely(t *testing.T) {
	// Greedy without rounds should balance comparably (ablation of the
	// round discipline). Allow it to win or lose, but both must respect the
	// theorem-style bound scaled by 2.
	p := makeProblem(t, 60, 8, 0.75, 12)
	r, err := replicate.BoundedAdams{}.Replicate(p, 90)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy{}.Place(p, r)
	if err != nil {
		t.Fatal(err)
	}
	loads := g.ServerLoads(p)
	if core.ImbalanceStd(loads) > 2*TheoremBound(p, r)+1e-9 {
		t.Fatalf("greedy imbalance wildly above bound: %g vs %g",
			core.ImbalanceStd(loads), TheoremBound(p, r))
	}
}

func TestTheoremBound(t *testing.T) {
	p := makeProblem(t, 3, 2, 0, 3)
	// Uniform popularity and equal replicas ⇒ equal weights ⇒ bound 0.
	if got := TheoremBound(p, []int{1, 1, 1}); math.Abs(got) > 1e-12 {
		t.Fatalf("bound for uniform weights = %g, want 0", got)
	}
	// Skewed: bound is max w − min w.
	q := makeProblem(t, 2, 2, 1, 2)
	peak := q.PeakRequests()
	want := q.Catalog[0].Popularity*peak - q.Catalog[1].Popularity*peak
	if got := TheoremBound(q, []int{1, 1}); math.Abs(got-want) > 1e-9 {
		t.Fatalf("bound = %g, want %g", got, want)
	}
	if got := TheoremBound(p, []int{0, 0, 0}); got != 0 {
		t.Fatalf("bound of empty vector = %g", got)
	}
}

func TestSLFErrorMentionsVideo(t *testing.T) {
	// An infeasible instance (more replicas than the cluster can separate)
	// is rejected up front by checkReplicaVector; exercise the message.
	p := makeProblem(t, 4, 2, 0.75, 2)
	_, err := SmallestLoadFirst{}.Place(p, []int{2, 2, 2, 2})
	if err == nil {
		t.Fatal("expected storage error")
	}
	if !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func BenchmarkSLFPlace100x8(b *testing.B) {
	p := makeProblem(b, 100, 8, 0.75, 15)
	r, err := replicate.BoundedAdams{}.Replicate(p, 120)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SmallestLoadFirst{}).Place(p, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundRobinPlace100x8(b *testing.B) {
	p := makeProblem(b, 100, 8, 0.75, 15)
	r, err := replicate.BoundedAdams{}.Replicate(p, 120)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (RoundRobin{}).Place(p, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUniformWeightsPerfectBalance: the paper notes round-robin placement is
// optimal when every replica carries the same communication weight; with a
// uniform catalog and a budget that is a multiple of N, both RR and SLF must
// achieve exactly zero imbalance.
func TestUniformWeightsPerfectBalance(t *testing.T) {
	p := makeProblem(t, 12, 4, 0, 6) // θ=0: uniform popularity
	r := make([]int, 12)
	for i := range r {
		r[i] = 2 // uniform replicas → uniform weights; 24 = 6 rounds of 4
	}
	for _, pl := range []Placer{SmallestLoadFirst{}, RoundRobin{}} {
		layout, err := pl.Place(p, r)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		loads := layout.ServerLoads(p)
		if got := core.ImbalanceStd(loads); got > 1e-9 {
			t.Fatalf("%s: uniform weights must balance perfectly, L = %g", pl.Name(), got)
		}
	}
}

// TestPlacersKeepReplicaGroupsIntact: no placer may merge or split replica
// groups — each video's server list has exactly r_i distinct entries.
func TestPlacersKeepReplicaGroupsIntact(t *testing.T) {
	p := makeProblem(t, 25, 5, 0.9, 8)
	r, err := replicate.BoundedAdams{}.Replicate(p, 37)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range allPlacers() {
		layout, err := pl.Place(p, r)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		for v, servers := range layout.Servers {
			seen := map[int]bool{}
			for _, s := range servers {
				if seen[s] {
					t.Fatalf("%s: video %d placed twice on server %d", pl.Name(), v, s)
				}
				seen[s] = true
			}
			if len(servers) != r[v] {
				t.Fatalf("%s: video %d has %d placements, want %d", pl.Name(), v, len(servers), r[v])
			}
		}
	}
}

// TestRelocateWeighsByTargetReplicas moves a video that has one of its two
// target replicas placed. The relocation must charge the moved replica at
// the target vector's weight, p·peak/2, not at the weight its one placed
// copy would give, or the loads the next placements read go wrong.
func TestRelocateWeighsByTargetReplicas(t *testing.T) {
	p := makeProblem(t, 3, 3, 0.75, 1)
	size := p.Catalog[0].SizeBytes()
	p.ServerStorage = []float64{size, size, 2 * size}
	replicas := []int{2, 2, 1}
	st := newState(p, replicas)
	for _, a := range []struct{ s, v int }{{2, 0}, {0, 1}, {1, 2}} {
		if err := st.assign(a.s, a.v, st.weightOf(a.v)); err != nil {
			t.Fatal(err)
		}
	}
	// Video 0's second replica fits nowhere: servers 0 and 1 are full, and
	// server 2 holds it. Moving video 1 from server 0 to server 2 frees 0.
	if sf := st.relocateFor(0); sf != 0 {
		t.Fatalf("relocateFor freed server %d, want 0", sf)
	}
	peak := p.PeakRequests()
	want := []float64{0, p.Catalog[2].Popularity * peak, (p.Catalog[0].Popularity + p.Catalog[1].Popularity) * peak / 2}
	for s := range want {
		if math.Abs(st.loads[s]-want[s]) > 1e-9 {
			t.Fatalf("loads %v, want %v", st.loads, want)
		}
	}
}
