package obs

import (
	"reflect"
	"testing"

	"vodcluster/internal/core"
	"vodcluster/internal/sim"
)

// simProblem: the micro-cluster the cluster/serve tests use — 3 videos,
// 2 servers, 2 concurrent streams per server — loaded hard enough that a
// run produces both admissions and rejections.
func simProblem(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	c := core.Catalog{
		{ID: 0, Popularity: 0.5, BitRate: 4 * core.Mbps, Duration: 30 * core.Minute},
		{ID: 1, Popularity: 0.3, BitRate: 4 * core.Mbps, Duration: 30 * core.Minute},
		{ID: 2, Popularity: 0.2, BitRate: 4 * core.Mbps, Duration: 30 * core.Minute},
	}
	p := &core.Problem{
		Catalog:            c,
		NumServers:         2,
		StoragePerServer:   2 * c[0].SizeBytes(),
		BandwidthPerServer: 10 * core.Mbps,
		ArrivalRate:        1.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	l := core.NewLayout(3)
	for _, pl := range []struct{ v, s int }{{0, 0}, {0, 1}, {1, 0}, {2, 1}} {
		if err := l.Place(pl.v, pl.s); err != nil {
			t.Fatal(err)
		}
	}
	return p, l
}

// TestSimHookTracesLifecycle runs a small simulation with the trace hook
// registered and checks the ring agrees with the run's own accounting:
// one arrive per request, one admit per acceptance, one reject per
// rejection, one end per admitted session — in non-decreasing virtual time.
func TestSimHookTracesLifecycle(t *testing.T) {
	p, layout := simProblem(t)
	tr := NewTracer(4096)
	res, err := sim.Run(sim.Config{
		Problem: p, Layout: layout, Seed: 7,
		Hooks: []sim.Hook{NewSimHook(tr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Accepted == 0 || res.Rejected == 0 {
		t.Fatalf("run not loaded as intended: %+v", res)
	}
	snap := tr.Snapshot()
	if uint64(len(snap)) != tr.Total() {
		t.Fatalf("ring wrapped (%d resident of %d total); enlarge the test tracer", len(snap), tr.Total())
	}

	counts := map[Kind]int{}
	lastTS := int64(-1)
	sessions := map[int64]Kind{}
	for _, e := range snap {
		counts[e.Kind]++
		if e.TS < lastTS {
			t.Fatalf("event %d went back in time: %d after %d", e.Seq, e.TS, lastTS)
		}
		lastTS = e.TS
		switch e.Kind {
		case KindAdmit:
			if _, dup := sessions[e.Session]; dup {
				t.Fatalf("session %d admitted twice", e.Session)
			}
			sessions[e.Session] = KindAdmit
		case KindEnd, KindTear:
			if sessions[e.Session] != KindAdmit {
				t.Fatalf("session %d ended without an admit in the window", e.Session)
			}
			sessions[e.Session] = e.Kind
		}
	}
	if counts[KindArrive] != res.Requests {
		t.Fatalf("arrive events = %d, run saw %d requests", counts[KindArrive], res.Requests)
	}
	if counts[KindAdmit] != res.Accepted {
		t.Fatalf("admit events = %d, run accepted %d", counts[KindAdmit], res.Accepted)
	}
	if counts[KindReject] != res.Rejected {
		t.Fatalf("reject events = %d, run rejected %d", counts[KindReject], res.Rejected)
	}
	if counts[KindEnd] != counts[KindAdmit] {
		t.Fatalf("end events = %d, admit events = %d; every admitted session should end naturally here",
			counts[KindEnd], counts[KindAdmit])
	}
}

// TestSimHookDeterministic: registering the tracer must not perturb the
// simulation — the run's results with and without the hook are identical.
func TestSimHookDeterministic(t *testing.T) {
	p, layout := simProblem(t)
	bare, err := sim.Run(sim.Config{Problem: p, Layout: layout, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sim.Run(sim.Config{
		Problem: p, Layout: layout, Seed: 7,
		Hooks: []sim.Hook{NewSimHook(NewTracer(4096))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Fatalf("tracing changed the run:\nbare   %+v\ntraced %+v", bare, traced)
	}
}
