package serve_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/policy"
	"vodcluster/internal/resilience"
	"vodcluster/internal/serve"
)

// parityCase is one generated cluster: a layout, per-video rates,
// per-server links and (in about half the cases) a backbone in whole Mb/s
// (so the daemon's integer accounting and the simulator's float accounting
// agree exactly), per-server storage of the layout's footprint plus a
// slack of whole and half 1 Mb/s-copy sizes (so sums stay exact), a
// pre-loaded set of streams, the servers down before the first request, and
// a request script.
type parityCase struct {
	p      *core.Problem
	layout *core.Layout
	load   [][2]int                   // (video, holder) streams admitted directly
	down   map[int]serve.BackendState // ineligible daemon state per down server
	live   []serve.BackendState       // daemon state of every other server
	ops    []parityOp
}

type parityOp struct {
	kind int // 0 admit, 1 release the i-th oldest live stream, 2 fail over
	v, i int
}

func genParityCase(seed int64) (*parityCase, error) {
	rng := rand.New(rand.NewSource(seed))
	n, m := 2+rng.Intn(5), 1+rng.Intn(8)
	cat := make(core.Catalog, m)
	for v := range cat {
		cat[v] = core.Video{ID: v, Popularity: 1 / float64(m), BitRate: float64(1+rng.Intn(4)) * core.Mbps, Duration: 90 * core.Minute}
	}
	bw := make([]float64, n)
	for s := range bw {
		bw[s] = float64(4+rng.Intn(12)) * core.Mbps
	}
	p := &core.Problem{
		Catalog:          cat,
		NumServers:       n,
		StoragePerServer: float64(m) * cat[0].SizeBytes() * 4,
		ServerBandwidth:  bw,
		ArrivalRate:      1.0 / core.Minute,
		PeakPeriod:       90 * core.Minute,
	}
	l := core.NewLayout(m)
	for v := 0; v < m; v++ {
		for _, s := range rng.Perm(n)[:1+rng.Intn(n)] {
			if err := l.Place(v, s); err != nil {
				return nil, err
			}
		}
	}
	c := &parityCase{p: p, layout: l, down: map[int]serve.BackendState{}, live: make([]serve.BackendState, n)}
	for i := rng.Intn(4 * n); i > 0; i-- {
		v := rng.Intn(m)
		c.load = append(c.load, [2]int{v, l.Servers[v][rng.Intn(len(l.Servers[v]))]})
	}
	for s := 0; s < n; s++ {
		switch r := rng.Intn(8); {
		case r == 0:
			c.down[s] = serve.BackendDown
		case r == 1:
			c.down[s] = serve.BackendDraining
		default:
			c.live[s] = []serve.BackendState{serve.BackendUp, serve.BackendSuspect, serve.BackendRecovering}[r%3]
		}
	}
	for i := 8 + rng.Intn(40); i > 0; i-- {
		op := parityOp{v: rng.Intn(m), i: rng.Intn(8)}
		switch r := rng.Intn(10); {
		case r < 2:
			op.kind = 1
		case r == 2:
			op.kind = 2
		}
		c.ops = append(c.ops, op)
	}
	if rng.Intn(2) == 0 {
		p.BackboneBandwidth = float64(1+rng.Intn(12)) * core.Mbps
	}
	unit := core.Mbps * cat[0].Duration / 8 // bytes of a 1 Mb/s copy
	p.ServerStorage = l.ServerStorageUsed(p)
	for s := range p.ServerStorage {
		p.ServerStorage[s] += (float64(rng.Intn(8)) + 0.5) * unit
	}
	return c, nil
}

// checkRankParity replays one generated case, for every registered policy,
// through the daemon (sequential Admit and Failover on a serve.Cluster) and
// through the simulator (Schedule, redirecting when the case has a
// backbone, and resilience.TryFailover at the fixed rate on the mirrored
// cluster.State), and fails on the first request the two place differently:
// another server, another source, or one redirected and the other not.
func checkRankParity(t *testing.T, seed int64) {
	t.Helper()
	pc, err := genParityCase(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		if err := replayParity(pc, name); err != nil {
			t.Fatalf("seed %d, policy %s: %v", seed, name, err)
		}
	}
}

func replayParity(pc *parityCase, name string) error {
	st, err := cluster.New(pc.p, pc.layout)
	if err != nil {
		return err
	}
	c, err := serve.NewCluster(pc.p, pc.layout)
	if err != nil {
		return err
	}
	newSched, err := policy.SchedulerFactory(name, pc.p.BackboneBandwidth > 0)
	if err != nil {
		return err
	}
	sched := newSched()
	pol, err := serve.NewPolicy(name, c)
	if err != nil {
		return err
	}
	for _, vs := range pc.load {
		_, simOK := st.AdmitDirect(vs[0], vs[1])
		if liveOK := c.TryReserve(vs[1], c.Rate(vs[0])); simOK != liveOK {
			return fmt.Errorf("pre-load of video %d on %d: sim ok=%v, daemon ok=%v", vs[0], vs[1], simOK, liveOK)
		}
	}
	for s, bs := range pc.live {
		c.SetState(s, bs)
	}
	for s, bs := range pc.down {
		st.FailServer(s)
		c.SetState(s, bs)
	}
	type pair struct {
		id cluster.StreamID
		g  serve.Grant
	}
	var live []pair
	for step, op := range pc.ops {
		switch op.kind {
		case 0, 2:
			var simID cluster.StreamID
			var simOK bool
			var g serve.Grant
			var liveOK bool
			what := "admit"
			if op.kind == 0 {
				simID, simOK = st.Admit(op.v, sched)
				g, liveOK = pol.Admit(op.v)
			} else {
				what = "failover"
				holders := c.Holders(op.v)
				exclude := holders[op.i%len(holders)]
				// FailServer tears the streams exclude carries or sources;
				// the daemon's engine releases the same grants.
				st.FailServer(exclude)
				kept := live[:0]
				for _, pr := range live {
					if pr.g.Server != exclude && pr.g.Source != exclude {
						kept = append(kept, pr)
					} else {
						pol.Release(pr.g)
					}
				}
				live = kept
				simID, simOK = resilience.TryFailover(st, op.v, 1)
				g, liveOK = pol.Failover(op.v, exclude)
				c.SetState(exclude, serve.BackendDraining)
			}
			sim := cluster.Stream{Server: -1, Source: -1}
			if simOK {
				sim, _ = st.Lookup(simID)
			}
			daemon := serve.Grant{Server: -1, Source: -1}
			if liveOK {
				daemon = g
			}
			if sim.Server != daemon.Server || sim.Source != daemon.Source || sim.Redirected != daemon.Redirected {
				return fmt.Errorf("step %d, %s of video %d: sim picked server %d from %d (redirected %v), daemon %d from %d (redirected %v) (-1 = reject)",
					step, what, op.v, sim.Server, sim.Source, sim.Redirected, daemon.Server, daemon.Source, daemon.Redirected)
			}
			if simOK {
				live = append(live, pair{simID, g})
			}
		case 1:
			if len(live) == 0 {
				continue
			}
			i := op.i % len(live)
			if err := st.Release(live[i].id); err != nil {
				return err
			}
			pol.Release(live[i].g)
			live = append(live[:i], live[i+1:]...)
		}
	}
	return nil
}

// TestRankParity is the property: on generated layouts, loads, backbones
// and down/draining sets, the daemon and the simulator pick the same server
// and source for every registered policy, on admission (redirected or not)
// and on failover.
func TestRankParity(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		checkRankParity(t, seed)
	}
}

func FuzzRankParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(checkRankParity)
}
