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

func TestServeNames(t *testing.T) {
	names := ServeNames()
	if len(names) != 2*len(Names()) {
		t.Fatalf("serve names %v: want every policy and its sim: adapter", names)
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate serve name %q", n)
		}
		seen[n] = true
	}
	for _, n := range Names() {
		if !seen[n] || !seen["sim:"+n] {
			t.Errorf("serve names %v miss %q or its sim: adapter", names, n)
		}
	}
	err := UnknownServeError("bogus")
	if err == nil || !strings.Contains(err.Error(), "sim:least-loaded") {
		t.Errorf("UnknownServeError does not list the adapters: %v", err)
	}
}

func TestListFormatting(t *testing.T) {
	l := List()
	for _, n := range Names() {
		if !strings.Contains(l, n) {
			t.Errorf("List() missing %q", n)
		}
	}
	if strings.Contains(l, "sim:") {
		t.Errorf("List() shows the daemon's sim: adapters:\n%s", l)
	}
	sl := ServeList()
	for _, n := range ServeNames() {
		if !strings.Contains(sl, n+" ") {
			t.Errorf("ServeList() missing %q:\n%s", n, sl)
		}
	}
	if !strings.Contains(sl, "mutex") {
		t.Errorf("ServeList() does not describe the sim: adapters:\n%s", sl)
	}
}
