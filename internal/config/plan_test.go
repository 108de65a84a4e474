package config

import (
	"bytes"
	"strings"
	"testing"

	"vodcluster/internal/core"
)

// planFixture computes a tiny valid layout by hand.
func planFixture(t *testing.T) (Scenario, *core.Layout) {
	t.Helper()
	s := Paper()
	s.Videos = 4
	s.Servers = 2
	s.LambdaPerMin = 10
	s.Degree = 1.5
	layout := core.NewLayout(4)
	for _, pl := range []struct{ v, sv int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {3, 1}} {
		if err := layout.Place(pl.v, pl.sv); err != nil {
			t.Fatal(err)
		}
	}
	return s, layout
}

func TestPlanRoundtrip(t *testing.T) {
	s, layout := planFixture(t)
	plan := NewPlan(s, layout)
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	problem, restored, err := got.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if problem.M() != 4 || restored.TotalReplicas() != 6 {
		t.Fatalf("restored M=%d replicas=%d", problem.M(), restored.TotalReplicas())
	}
	for v := range layout.Servers {
		for k := range layout.Servers[v] {
			if restored.Servers[v][k] != layout.Servers[v][k] {
				t.Fatal("placement corrupted in roundtrip")
			}
		}
	}
}

func TestPlanDeepCopies(t *testing.T) {
	s, layout := planFixture(t)
	plan := NewPlan(s, layout)
	plan.Servers[0][0] = 99
	if layout.Servers[0][0] == 99 {
		t.Fatal("NewPlan shares slices with the layout")
	}
}

func TestLoadPlanRejectsBadInput(t *testing.T) {
	if _, err := LoadPlan(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong version.
	s, layout := planFixture(t)
	plan := NewPlan(s, layout)
	plan.Version = 99
	var buf bytes.Buffer
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(&buf); err == nil {
		t.Fatal("future version accepted")
	}
	// Layout inconsistent with scenario (replica on a server that does not
	// exist in the declared cluster).
	plan = NewPlan(s, layout)
	plan.Servers[0] = []int{0, 7}
	buf.Reset()
	if err := plan.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(&buf); err == nil {
		t.Fatal("invalid placement accepted")
	}
}

// TestLoadPlanRejectsReplicaMismatch edits a saved plan by hand so its
// "replicas" counts disagree with its "servers" lists. The layout holds no
// counts of its own, so only the plan reader can catch it.
func TestLoadPlanRejectsReplicaMismatch(t *testing.T) {
	s, layout := planFixture(t)
	var buf bytes.Buffer
	if err := NewPlan(s, layout).Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	const head = "\"replicas\": [\n    2,\n    2,\n    1,\n    1\n  ]"
	if !strings.Contains(saved, head) {
		t.Fatalf("saved plan has no %q:\n%s", head, saved)
	}
	for _, tc := range []struct{ name, replicas, want string }{
		{"count differs", "\"replicas\": [1, 2, 1, 1]", "video 0 declares 1 replicas but lists 2 servers"},
		{"one count short", "\"replicas\": [2, 2, 1]", "3 replica counts for 4 videos"},
	} {
		_, err := LoadPlan(strings.NewReader(strings.Replace(saved, head, tc.replicas, 1)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
