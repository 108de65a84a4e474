package place

import (
	"reflect"
	"sort"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/replicate"
	"vodcluster/internal/stats"
)

// referenceSortedReplicas is sortedReplicas as it was before it moved to
// slices.SortFunc: the same (weight, video) order through sort.SliceStable.
func referenceSortedReplicas(p *core.Problem, replicas []int) []replicaRef {
	refs := groupedReplicas(p, replicas)
	sort.SliceStable(refs, func(i, j int) bool {
		if refs[i].weight != refs[j].weight {
			return refs[i].weight > refs[j].weight
		}
		return refs[i].video < refs[j].video
	})
	return refs
}

// referenceSLF is smallest-load-first with the free servers re-sorted before
// every replica — the straightforward reading of Algorithm 1 that placeRound
// used to implement — through the reflective sort.SliceStable sorts the
// placer used before it moved to slices. It shares state, swapRepair and
// relocateFor with the production placer and differs only in how and when it
// sorts; conflicts counts the replicas that took the swap/relocate path. With sortEvery false it sorts
// once per round and never again: placeRound without its re-sort after a
// conflict, the mutant the pinned instance below must tell from the reference.
func referenceSLF(p *core.Problem, replicas []int, sortEvery bool) (layout *core.Layout, conflicts int, err error) {
	if err := checkReplicaVector(p, replicas); err != nil {
		return nil, 0, err
	}
	refs := referenceSortedReplicas(p, replicas)
	st := newState(p, replicas)
	n := p.N()
	for start := 0; start < len(refs); start += n {
		end := start + n
		if end > len(refs) {
			end = len(refs)
		}
		c, err := referencePlaceRound(st, refs[start:end], sortEvery)
		conflicts += c
		if err != nil {
			return nil, conflicts, err
		}
	}
	return st.layout, conflicts, nil
}

func referencePlaceRound(st *state, round []replicaRef, sortEvery bool) (conflicts int, err error) {
	free := make([]int, st.p.N())
	for i := range free {
		free[i] = i
	}
	done := make([]roundAssignment, 0, len(round))
	for ri, ref := range round {
		if ri == 0 || sortEvery {
			sort.SliceStable(free, func(a, b int) bool {
				if st.loads[free[a]] != st.loads[free[b]] {
					return st.loads[free[a]] < st.loads[free[b]]
				}
				return free[a] < free[b]
			})
		}
		placed := false
		for idx, sv := range free {
			if st.canHost(sv, ref.video) {
				free = append(free[:idx], free[idx+1:]...)
				if err := st.assign(sv, ref.video, ref.weight); err != nil {
					return conflicts, err
				}
				done = append(done, roundAssignment{server: sv, video: ref.video, weight: ref.weight})
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		conflicts++
		moved, err := swapRepair(st, &free, done, ref)
		if err != nil {
			sf := st.relocateFor(ref.video)
			if sf == -1 {
				return conflicts, err
			}
			if err := st.assign(sf, ref.video, ref.weight); err != nil {
				return conflicts, err
			}
			for idx, sv := range free {
				if sv == sf {
					free = append(free[:idx], free[idx+1:]...)
					break
				}
			}
			moved = roundAssignment{server: sf, video: ref.video, weight: ref.weight}
		}
		done = append(done, moved)
	}
	return conflicts, nil
}

// TestSLFMatchesPerReplicaSortReference checks that sorting the free list
// once per round (and again after a conflict) places every replica exactly
// where sorting before every replica does: (load, index) is a total order and
// a free server's load only moves on the conflict path. Instances are random
// homogeneous clusters (TestSLFStress's generator; equal-sized videos never
// conflict there) and the two heterogeneous shapes of hetero_test.go at
// random sizes and degrees, whose small servers fill up mid-stream and send
// replicas through swapRepair and relocateFor.
func TestSLFMatchesPerReplicaSortReference(t *testing.T) {
	compare := func(name string, p *core.Problem, r []int) (conflicts int) {
		t.Helper()
		want, conflicts, wantErr := referenceSLF(p, r, true)
		got, gotErr := SmallestLoadFirst{}.Place(p, r)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: reference error %v, slf error %v", name, wantErr, gotErr)
		}
		if wantErr != nil {
			return conflicts
		}
		if !reflect.DeepEqual(got.Servers, want.Servers) || !reflect.DeepEqual(got.Replicas, want.Replicas) {
			t.Fatalf("%s: layout differs from the per-replica-sort reference\n got %v\nwant %v", name, got.Servers, want.Servers)
		}
		return conflicts
	}

	rng := stats.NewRNG(2024)
	for trial := 0; trial < 400; trial++ {
		m := 2 + rng.Intn(40)
		n := 2 + rng.Intn(12)
		capPer := (m+n-1)/n + rng.Intn(4)
		if capPer > m {
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
		compare("homogeneous", p, r)
	}

	conflicts := 0
	for trial := 0; trial < 120; trial++ {
		m := 10 + rng.Intn(60)
		degree := 1 + 0.7*rng.Float64()
		for _, p := range []*core.Problem{heteroProblem(t, m), crossedProblem(t, m)} {
			budget, err := p.TargetTotalReplicas(degree)
			if err != nil {
				continue // this size and degree exceed the cluster's storage
			}
			r, err := replicate.BoundedAdams{}.Replicate(p, budget)
			if err != nil {
				continue
			}
			conflicts += compare("heterogeneous", p, r)
		}
	}
	if conflicts == 0 {
		t.Fatal("no instance reached swapRepair; the re-sort after a conflict is untested")
	}

	// A successful swapRepair only touches servers that leave the free list,
	// and every round starts with a sort, so the re-sort after a conflict
	// matters only when relocateFor, mid-round, moves a replica onto a server
	// that is still free. One such instance is pinned. Round one puts v2 on
	// server 0 (filling it) and v0 on servers 1 and 2. Round two opens with
	// v0's third replica: servers 1 and 2 hold v0 and server 0 is full, no
	// same-round assignment exists to swap with, so relocateFor moves v2 from
	// server 0 to server 1 and v0 takes server 0. Server 1 is still free and
	// now carries more than server 2, so v3 must go to server 2; without the
	// re-sort it goes to server 1, which the sortEvery=false mutant shows.
	c, err := core.NewCatalog(4, 0, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for v, pop := range []float64{0.456, 0.244, 0.169, 0.131} {
		c[v].Popularity = pop
	}
	size := c[0].SizeBytes()
	p := &core.Problem{
		Catalog:         c,
		NumServers:      3,
		ServerStorage:   []float64{1 * size, 3 * size, 4 * size},
		ServerBandwidth: []float64{2 * core.Gbps, 2 * core.Gbps, 2 * core.Gbps},
		ArrivalRate:     40.0 / core.Minute,
		PeakPeriod:      90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := []int{3, 2, 1, 1}
	if compare("pinned", p, r) == 0 {
		t.Fatal("the pinned instance no longer reaches the conflict path")
	}
	want, _, err := referenceSLF(p, r, true)
	if err != nil {
		t.Fatal(err)
	}
	mutant, _, err := referenceSLF(p, r, false)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(mutant.Servers, want.Servers) {
		t.Fatalf("the pinned instance does not depend on the re-sort after a conflict: both give %v", want.Servers)
	}
}

// TestSortedReplicasMatchesStableSort checks that the unstable slices sort
// orders replicas exactly as the stable reflective sort did, on random
// homogeneous instances and on uniform popularities, where every video with
// the same replica count ties on weight and the video ID decides.
func TestSortedReplicasMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(60)
		n := 2 + rng.Intn(12)
		theta := rng.Float64()
		if trial%3 == 0 {
			theta = 0
		}
		p := makeProblem(t, m, n, theta, m)
		r := make([]int, m)
		for v := range r {
			r[v] = 1 + rng.Intn(n)
		}
		if got, want := sortedReplicas(p, r), referenceSortedReplicas(p, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sortedReplicas = %v, reference %v", trial, got, want)
		}
	}
}

// TestSLFMatchesReferenceAtPlanScale runs the per-replica-sort reference at
// the benchmark's plan_scale shape, M = 20 000 titles on N = 64 servers at
// degree 1.2 from both bounded Adams and the Zipf-interval scheme, where
// hundreds of rounds reuse placeRound's buffers.
func TestSLFMatchesReferenceAtPlanScale(t *testing.T) {
	const m, n = 20_000, 64
	p := makeProblem(t, m, n, 0.75, (12*m/10+n-1)/n)
	budget, err := p.TargetTotalReplicas(1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []replicate.Replicator{replicate.BoundedAdams{}, replicate.ZipfInterval{}} {
		r, err := rep.Replicate(p, budget)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := referenceSLF(p, r, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SmallestLoadFirst{}.Place(p, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Servers, want.Servers) {
			t.Fatalf("%s replicas: layout differs from the reference", rep.Name())
		}
	}
}
