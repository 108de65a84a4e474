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
// plus an atomic reservation. The daemon also accepts a "sim:" name per
// entry: the exact simulator scheduler behind a mutex, which is the
// backbone-redirection path.
package policy

import (
	"fmt"
	"strings"

	"vodcluster/internal/cluster"
	"vodcluster/internal/redirect"
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

// simPrefix marks the serve layer's locked sim-parity adapters.
const simPrefix = "sim:"

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
	return func() cluster.Scheduler { return redirect.New(e.NewScheduler()) }, nil
}

// ServeNames lists the names serve.NewPolicy accepts: every registered
// policy, then one "sim:" locked sim-parity adapter per entry.
func ServeNames() []string {
	names := Names()
	for _, e := range registry {
		names = append(names, simPrefix+e.Name)
	}
	return names
}

// UnknownServeError is the error serve.NewPolicy returns for a name outside
// ServeNames, listing the accepted names from the registry.
func UnknownServeError(name string) error {
	return fmt.Errorf("policy: unknown serve policy %q (available: %s)", name, strings.Join(ServeNames(), ", "))
}

// List renders the registry with one-line descriptions — the body of the
// simulator tools' -list-policies flag.
func List() string { return table(Names()) }

// ServeList renders the daemon's name table with one-line descriptions:
// every registered policy, then its "sim:" adapter.
func ServeList() string { return table(ServeNames()) }

// table renders names, each with its entry's description; a "sim:" name is
// marked as the locked adapter over its base entry.
func table(names []string) string {
	w := 0
	for _, n := range names {
		w = max(w, len(n))
	}
	var b strings.Builder
	for _, n := range names {
		base, sim := strings.CutPrefix(n, simPrefix)
		e, _ := Lookup(base)
		desc := e.Description
		if sim {
			desc = "the simulator's scheduler behind a mutex, with backbone redirection when the problem has a backbone"
		}
		fmt.Fprintf(&b, "  %-*s  %s\n", w, n, desc)
	}
	return b.String()
}
