package sim

import (
	"reflect"
	"testing"

	"vodcluster/internal/avail"
	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/resilience"
)

// decisionProblem builds a small, saturable cluster: 3 servers, 4 videos,
// hot video on every server, the rest on one each.
func decisionProblem(t *testing.T) (*core.Problem, *core.Layout) {
	t.Helper()
	catalog, err := core.NewCatalog(4, 0.75, 4e6, 600)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         3,
		StoragePerServer:   1e12,
		BandwidthPerServer: 20e6, // 5 concurrent streams per server
		ArrivalRate:        0.2,  // 120 arrivals over a 600 s window
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

func TestDecisionJournalAlignsWithArrivals(t *testing.T) {
	p, layout := decisionProblem(t)
	j := &DecisionJournal{}
	res, err := Run(Config{
		Problem: p, Layout: layout, Seed: 7,
		Hooks: []Hook{j},
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := j.Arrivals()
	if len(arr) != res.Arrivals {
		t.Fatalf("journal has %d arrival decisions, result counted %d arrivals", len(arr), res.Arrivals)
	}
	if len(arr) == 0 {
		t.Fatal("no arrivals in the run")
	}
	admitted, rejected := 0, 0
	lastTime := 0.0
	for i, d := range arr {
		if d.Seq != i {
			t.Fatalf("arrival %d has seq %d", i, d.Seq)
		}
		if d.Time < lastTime {
			t.Fatalf("arrival %d at t=%g before previous t=%g", i, d.Time, lastTime)
		}
		lastTime = d.Time
		if d.Feasible == nil {
			t.Fatalf("arrival %d has no feasible set", i)
		}
		switch d.Outcome {
		case Admitted:
			admitted++
			if d.Server < 0 || d.Source < 0 {
				t.Fatalf("admitted decision %d has server %d source %d", i, d.Server, d.Source)
			}
			found := false
			for _, s := range d.Feasible {
				if s == d.Server {
					found = true
				}
			}
			if !found && !d.Redirected {
				t.Fatalf("decision %d admitted on server %d outside feasible set %v", i, d.Server, d.Feasible)
			}
		case Rejected:
			rejected++
			if d.Server != -1 || d.Source != -1 {
				t.Fatalf("rejected decision %d carries server %d", i, d.Server)
			}
		default:
			t.Fatalf("arrival %d settled %v with no retry mechanism", i, d.Outcome)
		}
	}
	if admitted != res.Accepted || rejected != res.Rejected {
		t.Fatalf("journal admitted/rejected = %d/%d, result = %d/%d",
			admitted, rejected, res.Accepted, res.Rejected)
	}
}

func TestDecisionJournalDeterministic(t *testing.T) {
	p, layout := decisionProblem(t)
	run := func() []Decision {
		j := &DecisionJournal{}
		if _, err := Run(Config{Problem: p, Layout: layout, Seed: 11, Hooks: []Hook{j}}); err != nil {
			t.Fatal(err)
		}
		return j.Decisions
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs at the same seed produced different journals")
	}
}

func TestSeededSchedulerJournalDeterministic(t *testing.T) {
	p, layout := decisionProblem(t)
	run := func() []Decision {
		j := &DecisionJournal{}
		cfg := Config{
			Problem: p, Layout: layout, Seed: 13,
			NewScheduler: func() cluster.Scheduler { return cluster.NewRandomHolder(0) },
			Hooks:        []Hook{j},
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return j.Decisions
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("random policy diverged across runs at the same seed")
	}
	spread := map[int]bool{}
	for _, d := range a {
		if d.Outcome == Admitted {
			spread[d.Server] = true
		}
	}
	if len(spread) < 2 {
		t.Fatalf("random policy used %d servers, expected spread", len(spread))
	}
}

func TestRetryDecisionsSettleDeferredArrivals(t *testing.T) {
	p, layout := decisionProblem(t)
	q := p.Clone()
	q.ArrivalRate = 2 // heavily saturating, forces rejections into the queue
	j := &DecisionJournal{}
	res, err := Run(Config{
		Problem: q, Layout: layout, Seed: 3,
		Resilience: &resilience.Policy{Retry: true},
		Hooks:      []Hook{j},
	})
	if err != nil {
		t.Fatal(err)
	}
	deferred, retries := 0, 0
	for _, d := range j.Decisions {
		switch {
		case d.Kind == KindArrival && d.Outcome == Deferred:
			deferred++
		case d.Kind == KindRetry:
			retries++
		}
	}
	if deferred == 0 {
		t.Fatal("saturating run with retry enabled deferred no arrivals")
	}
	if retries == 0 {
		t.Fatal("deferred arrivals produced no retry decisions")
	}
	// Every queued arrival settles exactly once: admissions + reneges.
	settledAdmit, settledRenege := 0, 0
	for _, d := range j.Decisions {
		if d.Kind != KindRetry {
			continue
		}
		switch d.Outcome {
		case Admitted:
			settledAdmit++
		case Rejected:
			settledRenege++
		}
	}
	if settledAdmit+settledRenege != deferred {
		t.Fatalf("%d deferred arrivals settled as %d admits + %d reneges",
			deferred, settledAdmit, settledRenege)
	}
	if res.Reneged != 0 && settledRenege == 0 {
		t.Fatal("result counts reneges the journal missed")
	}
}

func TestFailoverDecisionsRecorded(t *testing.T) {
	p, layout := decisionProblem(t)
	j := &DecisionJournal{}
	res, err := Run(Config{
		Problem: p, Layout: layout, Seed: 5,
		FailAt:     []avail.FailureEvent{{Server: 0, At: 300}},
		Resilience: &resilience.Policy{Failover: true},
		Hooks:      []Hook{j},
	})
	if err != nil {
		t.Fatal(err)
	}
	fo := 0
	salvaged := 0
	for _, d := range j.Decisions {
		if d.Kind != KindFailover {
			continue
		}
		fo++
		if d.Outcome == Admitted {
			salvaged++
			if d.Server == 0 {
				t.Fatal("failover decision re-admitted onto the failed server")
			}
		}
	}
	if fo == 0 {
		t.Fatal("server failure produced no failover decisions")
	}
	if salvaged != res.FailedOver {
		t.Fatalf("journal salvaged %d, result counted %d", salvaged, res.FailedOver)
	}
}

func TestDivergentClassifiesDifferences(t *testing.T) {
	base := Decision{Outcome: Admitted, Server: 1, Source: 1}
	if why := base.Divergent(base); why != "" {
		t.Fatalf("identical decisions diverge: %q", why)
	}
	cases := []struct {
		alt  Decision
		want string
	}{
		{Decision{Outcome: Rejected, Server: -1, Source: -1}, "outcome"},
		{Decision{Outcome: Admitted, Server: 2, Source: 2}, "server"},
		{Decision{Outcome: Admitted, Server: 1, Source: 2, Redirected: true}, "route"},
	}
	for _, c := range cases {
		why := base.Divergent(c.alt)
		if why == "" {
			t.Fatalf("no divergence against %+v", c.alt)
		}
		if got := why[:len(c.want)]; got != c.want {
			t.Fatalf("divergence %q, want prefix %q", why, c.want)
		}
	}
	rejA := Decision{Outcome: Rejected, Server: -1, Source: -1}
	if why := rejA.Divergent(rejA); why != "" {
		t.Fatalf("two rejections diverge: %q", why)
	}
}
