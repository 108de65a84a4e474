package serve_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/resilience"
	"vodcluster/internal/serve"
)

// checkRepairParity replays one generated case through the daemon's
// repairer (scan and landing on a serve.Cluster, without the timers) and the
// simulator's (Scan and Landing on the mirrored cluster.State), under a
// repair policy and failure script drawn from the seed: a failure before the
// first scan, then rounds of scans, landings in a drawn order, further
// failures and recoveries mid-copy. It fails on the first difference in a
// scan's (video, source, destination) list, a landing's outcome, the
// counters, the holder lists, storage or free bandwidth, or the peak copy
// bandwidth, and when the peak exceeds the budget.
func checkRepairParity(t *testing.T, seed int64) {
	t.Helper()
	pc, err := genParityCase(seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayRepairParity(pc, seed, nil); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// replayRepairParity runs one case; outcomes, when non-nil, counts the
// daemon's landings by abort reason ("" for landed) and its skipped repairs
// (under "skipped").
func replayRepairParity(pc *parityCase, seed int64, outcomes map[string]int) error {
	rng := rand.New(rand.NewSource(seed))
	pol := resilience.Policy{
		Failover:         true,
		Repair:           true,
		RepairMinLive:    1 + rng.Intn(3),
		RepairMaxPerTick: 1 + rng.Intn(3),
		RepairRate:       float64(1+rng.Intn(4)) * core.Mbps,
		RepairInterval:   1e9, // no tick fires: the script drives every scan
	}
	if rng.Intn(2) == 0 {
		pol.RepairBudget = float64(1+rng.Intn(8)) * core.Mbps
	}

	st, err := cluster.New(pc.p, pc.layout)
	if err != nil {
		return err
	}
	simRep, err := resilience.NewRepairer(pc.p, pol.WithDefaults())
	if err != nil {
		return err
	}
	srv, err := serve.New(pc.p, pc.layout, serve.Config{Resilience: &pol})
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	c, rep := srv.Cluster(), srv.Repairer()

	// Pre-loaded streams hold bandwidth on both sides; a failure tears the
	// ones its server carries, which the daemon mirrors by releasing them.
	type stream struct {
		server int
		rate   int64
	}
	var streams []stream
	for _, vs := range pc.load {
		_, simOK := st.AdmitDirect(vs[0], vs[1])
		liveOK := c.TryReserve(vs[1], c.Rate(vs[0]))
		if simOK != liveOK {
			return fmt.Errorf("pre-load of video %d on %d: sim ok=%v, daemon ok=%v", vs[0], vs[1], simOK, liveOK)
		}
		if liveOK {
			streams = append(streams, stream{vs[1], c.Rate(vs[0])})
		}
	}
	fail := func(s int) {
		st.FailServer(s)
		c.SetState(s, serve.BackendDown)
		kept := streams[:0]
		for _, x := range streams {
			if x.server == s {
				c.Release(x.server, x.rate)
			} else {
				kept = append(kept, x)
			}
		}
		streams = kept
	}
	// The simulator has no draining state, so every down server of the
	// case is down, unreadable, on both sides.
	for s, bs := range pc.live {
		c.SetState(s, bs)
	}
	for s := range pc.down {
		fail(s)
	}
	failSome := func() {
		var up []int
		for s := 0; s < pc.p.N(); s++ {
			if st.Readable(s) {
				up = append(up, s)
			}
		}
		if len(up) > 0 {
			fail(up[rng.Intn(len(up))])
		}
	}
	failSome() // the scripted failure

	type pair struct{ sim, live resilience.Copy }
	var inflight []pair
	var landings []func(float64)
	land := func(i int) error {
		simDone := simRep.Completed()
		landings[i](0)
		reason := rep.LandNow(inflight[i].live)
		if outcomes != nil {
			outcomes[reason]++
		}
		if simLanded, liveLanded := simRep.Completed() > simDone, reason == ""; simLanded != liveLanded {
			return fmt.Errorf("landing of %+v: sim landed %v, daemon landed %v (%q)", inflight[i].sim, simLanded, liveLanded, reason)
		}
		inflight = slices.Delete(inflight, i, i+1)
		landings = slices.Delete(landings, i, i+1)
		return nil
	}
	for round := 0; round < 2+rng.Intn(5); round++ {
		simCopies := simRep.Scan(st, nil)
		liveCopies := rep.ScanNow()
		if !sameEndpoints(simCopies, liveCopies) {
			return fmt.Errorf("round %d scan: sim started %v, daemon %v", round, endpoints(simCopies), endpoints(liveCopies))
		}
		for i, sc := range simCopies {
			inflight = append(inflight, pair{sc, liveCopies[i]})
			landings = append(landings, simRep.Landing(st, sc))
		}
		for n := rng.Intn(len(inflight) + 1); n > 0; n-- {
			if err := land(rng.Intn(len(inflight))); err != nil {
				return fmt.Errorf("round %d: %v", round, err)
			}
		}
		switch rng.Intn(4) {
		case 0:
			failSome()
		case 1:
			for s := 0; s < pc.p.N(); s++ {
				if !st.Readable(s) && rng.Intn(2) == 0 {
					st.RestoreServer(s)
					c.SetState(s, serve.BackendUp)
				}
			}
		}
	}
	for len(inflight) > 0 {
		if err := land(rng.Intn(len(inflight))); err != nil {
			return fmt.Errorf("final landings: %v", err)
		}
	}

	if outcomes != nil {
		outcomes["skipped"] += int(rep.Skipped())
	}
	simCounts := [4]int64{int64(simRep.Started()), int64(simRep.Completed()), int64(simRep.Aborted()), int64(simRep.Skipped())}
	liveCounts := [4]int64{rep.Started(), rep.Completed(), rep.Aborted(), rep.Skipped()}
	if simCounts != liveCounts || rep.Inflight() != 0 || simRep.Inflight() != 0 {
		return fmt.Errorf("started/completed/aborted/skipped: sim %v, daemon %v (in flight %d, %d)",
			simCounts, liveCounts, simRep.Inflight(), rep.Inflight())
	}
	if sp, lp := simRep.PeakRate(), rep.PeakCopyRate(); sp != lp || (pol.RepairBudget > 0 && lp > pol.RepairBudget+1e-6) {
		return fmt.Errorf("peak copy rate: sim %g, daemon %g, budget %g", sp, lp, pol.RepairBudget)
	}
	for v := 0; v < pc.p.M(); v++ {
		if !slices.Equal(st.Holders(v), c.Holders(v)) {
			return fmt.Errorf("video %d held by %v in the sim, %v in the daemon", v, st.Holders(v), c.Holders(v))
		}
	}
	for s := 0; s < pc.p.N(); s++ {
		if sf, lf := st.StorageFree(s), c.StorageFree(s); math.Abs(sf-lf) > 1e-6 || lf < -1e-6 {
			return fmt.Errorf("server %d storage free: sim %g, daemon %g", s, sf, lf)
		}
		if sf, lf := st.FreeBandwidth(s), c.FreeBandwidth(s); st.Readable(s) && sf != lf {
			return fmt.Errorf("server %d free bandwidth: sim %g, daemon %g", s, sf, lf)
		}
	}
	if sf, lf := st.BackboneFree(), c.BackboneFree(); sf != lf {
		return fmt.Errorf("backbone free: sim %g, daemon %g", sf, lf)
	}
	return nil
}

// sameEndpoints reports whether two scans started the same copies in the
// same order.
func sameEndpoints(a, b []resilience.Copy) bool {
	return slices.Equal(endpoints(a), endpoints(b))
}

func endpoints(cs []resilience.Copy) [][3]int {
	out := make([][3]int, len(cs))
	for i, c := range cs {
		out[i] = [3]int{c.Video, c.Src, c.Dst}
	}
	return out
}

// TestRepairParity is the property: on generated layouts, loads, storage,
// backbones and failure scripts, the daemon's repairer and the simulator's
// start the same copies, land or abort each the same way, and leave the
// same holder lists, storage and bandwidth.
func TestRepairParity(t *testing.T) {
	outcomes := map[string]int{}
	for seed := int64(1); seed <= 500; seed++ {
		pc, err := genParityCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := replayRepairParity(pc, seed, outcomes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("500 seeds: landings by abort reason (\"\" = landed) and skips: %v", outcomes)
}

func FuzzRepairParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(checkRepairParity)
}
