// Package vodcluster is the public face of a reproduction of Zhou & Xu,
// "Optimal Video Replication and Placement on a Cluster of Video-on-Demand
// Servers" (ICPP 2002). It wires the building blocks — replication
// (internal/replicate), placement (internal/place), the cluster runtime
// (internal/cluster), and the discrete-event simulator (internal/sim) — into
// the end-to-end pipeline the paper evaluates:
//
//	problem → replica counts → placement → simulated peak period → metrics
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package vodcluster

import (
	"fmt"
	"os"

	"vodcluster/internal/cluster"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/policy"
	"vodcluster/internal/replicate"
)

// Replicators returns every replication algorithm, paper algorithms first.
func Replicators() []replicate.Replicator {
	return []replicate.Replicator{
		replicate.BoundedAdams{},
		replicate.ZipfInterval{},
		replicate.Classification{},
		replicate.Uniform{},
	}
}

// ReplicatorByName resolves adams | zipf | classification | uniform.
func ReplicatorByName(name string) (replicate.Replicator, error) {
	for _, r := range Replicators() {
		if r.Name() == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("vodcluster: unknown replicator %q (want adams, zipf, classification, or uniform)", name)
}

// Placers returns every placement algorithm: the paper's two first, then the
// ablation variants and the heterogeneous-cluster extensions.
func Placers() []place.Placer {
	return []place.Placer{
		place.SmallestLoadFirst{},
		place.RoundRobin{},
		place.Greedy{},
		place.Random{Seed: 1},
		place.WeightedSLF{},
		place.BSR{},
	}
}

// PlacerByName resolves slf | roundrobin | greedy | random | wslf | bsr.
func PlacerByName(name string) (place.Placer, error) {
	for _, p := range Placers() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("vodcluster: unknown placer %q (want slf, roundrobin, greedy, random, wslf, or bsr)", name)
}

// SchedulerFactory resolves a scheduling policy name to a per-run
// constructor through the shared policy registry (internal/policy).
// withRedirect wraps the base policy with backbone request redirection
// (meaningful only when the problem defines backbone bandwidth).
func SchedulerFactory(name string, withRedirect bool) (func() cluster.Scheduler, error) {
	f, err := policy.SchedulerFactory(name, withRedirect)
	if err != nil {
		return nil, fmt.Errorf("vodcluster: %w", err)
	}
	return f, nil
}

// BuildLayout runs replication then placement for the target replication
// degree and returns a validated layout.
func BuildLayout(p *core.Problem, r replicate.Replicator, pl place.Placer, degree float64) (*core.Layout, error) {
	budget, err := p.TargetTotalReplicas(degree)
	if err != nil {
		return nil, err
	}
	replicas, err := r.Replicate(p, budget)
	if err != nil {
		return nil, err
	}
	layout, err := pl.Place(p, replicas)
	if err != nil {
		return nil, err
	}
	if err := layout.Validate(p); err != nil {
		return nil, err
	}
	return layout, nil
}

// Pipeline materializes a scenario: the problem, the layout produced by the
// scenario's replication/placement pair, and the scheduler factory.
func Pipeline(s config.Scenario) (*core.Problem, *core.Layout, func() cluster.Scheduler, error) {
	p, err := s.Problem()
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := ReplicatorByName(s.Replicator)
	if err != nil {
		return nil, nil, nil, err
	}
	pl, err := PlacerByName(s.Placer)
	if err != nil {
		return nil, nil, nil, err
	}
	layout, err := BuildLayout(p, r, pl, s.Degree)
	if err != nil {
		return nil, nil, nil, err
	}
	sched, err := SchedulerFactory(s.Scheduler, p.BackboneBandwidth > 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return p, layout, sched, nil
}

// LoadLayout materializes the problem/layout pair a daemon serves: a
// persisted plan (planPath) wins, then a scenario file (scenarioPath) run
// through Pipeline, then the paper defaults. vodserved and vodload share it,
// so both tools agree on what is being served.
func LoadLayout(scenarioPath, planPath string) (*core.Problem, *core.Layout, error) {
	if planPath != "" {
		f, err := os.Open(planPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		plan, err := config.LoadPlan(f)
		if err != nil {
			return nil, nil, err
		}
		return plan.Layout()
	}
	s := config.Paper()
	if scenarioPath != "" {
		f, err := os.Open(scenarioPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		if s, err = config.Load(f); err != nil {
			return nil, nil, err
		}
	}
	p, layout, _, err := Pipeline(s)
	return p, layout, err
}
