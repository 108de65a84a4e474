package policy

import (
	"strings"
	"testing"

	"vodcluster/internal/cluster"
)

func TestNamesAndEntries(t *testing.T) {
	names := Names()
	want := []string{"static-rr", "first-available", "least-loaded", "random"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d policies, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, e := range registry {
		if e.Description == "" {
			t.Errorf("policy %q has no description", e.Name)
		}
		if e.NewScheduler == nil || e.Rank == nil {
			t.Errorf("policy %q lacks a constructor or a rank", e.Name)
			continue
		}
		sched := e.NewScheduler()
		if got := sched.Name(); got != e.Name {
			t.Errorf("policy %q constructs a scheduler named %q", e.Name, got)
		}
		// The simulator's scheduler is the entry's rank: same type.
		if _, ok := sched.(cluster.Ranker); !ok {
			t.Errorf("policy %q: scheduler %T does not rank", e.Name, sched)
		}
	}
}

func TestLookupDefaultAndUnknown(t *testing.T) {
	e, err := Lookup("")
	if err != nil {
		t.Fatalf("Lookup(\"\"): %v", err)
	}
	if e.Name != Default {
		t.Fatalf("empty name resolved to %q, want %q", e.Name, Default)
	}
	_, err = Lookup("no-such-policy")
	if err == nil {
		t.Fatal("Lookup of unknown policy succeeded")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-policy error %q does not list %q", err, n)
		}
	}
}

func TestSchedulerFactory(t *testing.T) {
	for _, n := range Names() {
		newSched, err := SchedulerFactory(n, false)
		if err != nil {
			t.Fatalf("SchedulerFactory(%q): %v", n, err)
		}
		if newSched() == nil {
			t.Fatalf("SchedulerFactory(%q) built a nil scheduler", n)
		}
		withRedirect, err := SchedulerFactory(n, true)
		if err != nil {
			t.Fatalf("SchedulerFactory(%q, redirect): %v", n, err)
		}
		if got := withRedirect().Name(); !strings.HasSuffix(got, "+redirect") {
			t.Errorf("redirecting factory for %q built %q", n, got)
		}
	}
	if _, err := SchedulerFactory("bogus", false); err == nil {
		t.Fatal("SchedulerFactory accepted an unknown name")
	}
}

func TestListFormatting(t *testing.T) {
	l := List()
	for _, n := range Names() {
		if !strings.Contains(l, n) {
			t.Errorf("List() missing %q", n)
		}
	}
}
