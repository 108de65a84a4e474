// Package policy is the single name table of replica-scheduling policies.
// Every layer that resolves a policy by name — the simulator pipeline
// (vodcluster.SchedulerFactory), the live dispatch daemon (serve.NewPolicy),
// the sweep harness (vodsim -sweep -series), and the counterfactual
// lockstep runner (internal/exp, cmd/vodab) — resolves it here, so adding a
// policy in one place makes it available, listable, and comparable
// everywhere at once.
//
// Each entry carries one rank (cluster.Ranker), written once in
// internal/cluster over a read-only cluster view. The simulator's scheduler
// is that rank plus State.CanServe; the daemon's policy is the same rank
// plus an atomic reservation. Backbone redirection (cluster.Redirect) is
// one more rule over the same view, which both sides fall back on when the
// problem has a backbone.
package policy

import (
	"fmt"
	"strings"

	"vodcluster/internal/cluster"
)

// Entry describes one named scheduling policy.
type Entry struct {
	// Name is the canonical policy name used on every command line.
	Name string
	// Description is the one-line summary -list-policies prints.
	Description string
	// NewScheduler constructs a fresh simulator-side policy instance per
	// run (instances may keep per-run state, so they are never shared).
	NewScheduler func() cluster.Scheduler
	// Rank is the policy's choice over a cluster view, the one function the
	// simulator's scheduler and the daemon both call.
	Rank cluster.Ranker
}

// registry is the ordered policy table; order is presentation order in
// listings and error messages.
var registry = []Entry{
	{
		Name:         "static-rr",
		Description:  "paper §3.2 static round-robin: requests rotate over a video's replicas in fixed order, no load awareness",
		NewScheduler: func() cluster.Scheduler { return cluster.StaticRoundRobin{} },
		Rank:         cluster.StaticRoundRobin{},
	},
	{
		Name:         "first-available",
		Description:  "static rotation, but probes the remaining replicas before rejecting when the designated server is full",
		NewScheduler: func() cluster.Scheduler { return cluster.FirstAvailable{} },
		Rank:         cluster.FirstAvailable{},
	},
	{
		Name:         "least-loaded",
		Description:  "serve from the eligible replica holder with the most free outgoing bandwidth (strongest non-redirecting policy)",
		NewScheduler: func() cluster.Scheduler { return cluster.LeastLoaded{} },
		Rank:         cluster.LeastLoaded{},
	},
	{
		Name:         "random",
		Description:  "uniformly random feasible replica holder; draws per-decision RNG streams so counterfactual runs stay paired",
		NewScheduler: func() cluster.Scheduler { return cluster.NewRandomHolder(0) },
		Rank:         cluster.RandomHolder{},
	},
}

// Names returns every registered policy name in presentation order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// Default is the policy an empty name resolves to — the paper's own
// dispatch model.
const Default = "static-rr"

// Lookup resolves a policy name; the empty name resolves to Default. An
// unknown name yields an error listing every registered name.
func Lookup(name string) (Entry, error) {
	if name == "" {
		name = Default
	}
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("policy: unknown policy %q (available: %s)", name, strings.Join(Names(), ", "))
}

// SchedulerFactory resolves a policy name to a per-run simulator
// constructor. withRedirect wraps the base policy with backbone request
// redirection (meaningful only when the problem defines backbone
// bandwidth).
func SchedulerFactory(name string, withRedirect bool) (func() cluster.Scheduler, error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if !withRedirect {
		return e.NewScheduler, nil
	}
	return func() cluster.Scheduler { return &cluster.Redirecting{Base: e.NewScheduler()} }, nil
}

// List renders the registry with one-line descriptions — the body of the
// -list-policies flag of the simulator tools and the daemon.
func List() string {
	w := 0
	for _, e := range registry {
		w = max(w, len(e.Name))
	}
	var b strings.Builder
	for _, e := range registry {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, e.Name, e.Description)
	}
	return b.String()
}
