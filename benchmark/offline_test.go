package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite fig4_digest.json from the current simulator and ../BENCHMARK.json from the metric tables")

func fig4DigestAt(t *testing.T, seed int64) fig4Digest {
	t.Helper()
	series, err := fig4Series(nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := fig4Sweep(series, seed, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	return digestOf(seed, series, grid)
}

// The stored digest is what the simulator produces today: a change that moves
// any simulated statistic has to regenerate it deliberately (-update).
func TestFig4DigestStored(t *testing.T) {
	got := fig4DigestAt(t, fig4DigestSeed)
	if *update {
		if err := writeJSON("fig4_digest.json", got); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want fig4Digest
	if err := json.Unmarshal(fig4DigestJSON, &want); err != nil {
		t.Fatal(err)
	}
	if d := got.diff(want); d != "" {
		t.Fatalf("fig4_sweep digest moved: %s", d)
	}
	if again := fig4DigestAt(t, fig4DigestSeed); again.diff(got) != "" {
		t.Fatalf("same seed, different digest: %s", again.diff(got))
	}
	if other := fig4DigestAt(t, fig4DigestSeed+1); other.diff(got) == "" {
		t.Fatal("a different seed produced the same digest")
	}
}

// benchmarkJSON renders the driver's contract file from the program's tables.
func benchmarkJSON() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: 16}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{m.Name, m.Unit, m.Better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if *update {
		b, err := benchmarkJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for i, m := range endToEnd {
		g := doc.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		g := doc.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, m)
		}
	}
}
