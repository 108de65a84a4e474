package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is what -compare says about one (workload, metric) pair.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares one end-to-end metric of a baseline run a and a candidate
// run b under the metric's bound. worse is the share of a's median by which
// b's median is worse (negative when better). A difference within the bound
// reads unchanged only when the run-to-run spread of both sides (min to max
// over repetitions, as a share of the median) is within the bound too;
// otherwise it is unresolved.
func judge(def metricDef, a, b reported) (worse float64, v verdict) {
	if a.Value == 0 {
		return 0, unresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(a.Max-a.Min, a.Value), ratio(b.Max-b.Min, b.Value))
	switch {
	case worse > def.Bound:
		return worse, regressed
	case spread > def.Bound:
		return worse, unresolved
	case worse < -def.Bound:
		return worse, improved
	}
	return worse, unchanged
}

func readResults(path string) (allResults, error) {
	var r allResults
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r allResults) find(workload string, trace int) (runResult, bool) {
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == trace {
			return run, true
		}
	}
	return runResult{}, false
}

// compareFiles prints one row per (workload, end-to-end metric) of baseline
// file a against candidate file b, then the per-layer numbers side by side,
// and returns 1 when any metric regressed beyond its bound or any workload
// failed more operations than before.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(os.Stdout, a, b)
}

func compareResults(w io.Writer, a, b allResults) int {
	fmt.Fprintf(w, "baseline:  %s, %s, nproc %d, GOMAXPROCS %d\ncandidate: %s, %s, nproc %d, GOMAXPROCS %d\n",
		a.Stamp.GitSHA, a.Stamp.CPUModel, a.Stamp.NumCPU, a.Stamp.GOMAXPROCS,
		b.Stamp.GitSHA, b.Stamp.CPUModel, b.Stamp.NumCPU, b.Stamp.GOMAXPROCS)
	code := 0
	fmt.Fprintf(w, "%-13s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		ra, okA := a.find(wl.name, 0)
		rb, okB := b.find(wl.name, 0)
		if !okA || !okB {
			fmt.Fprintf(w, "%-13s missing from one side\n", wl.name)
			code = 1
			continue
		}
		for _, def := range endToEnd {
			worse, v := judge(def, ra.Metrics[def.Name], rb.Metrics[def.Name])
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %8.1f%% %6.0f%%  %s\n", wl.name, def.Name,
				ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value, 100*worse, 100*def.Bound, v)
		}
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		v := unchanged
		if fb > fa {
			v, code = regressed, 1
		}
		fmt.Fprintf(w, "%-13s %-12s %14.6g %14.6g %9s %7s  %s\n", wl.name, "failed_ratio", fa, fb, "", "0", v)
	}
	fmt.Fprintf(w, "\nper-layer metrics of the traced passes (no bounds; 0 on both sides left out)\n")
	for _, wl := range workloads {
		ra, okA := a.find(wl.name, 1)
		rb, okB := b.find(wl.name, 1)
		if !okA || !okB {
			continue
		}
		for _, def := range perLayer {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			if va == 0 && vb == 0 {
				continue
			}
			fmt.Fprintf(w, "%-13s %-38s %14.6g %14.6g %-6s x%.3f\n", wl.name, def.Name, va, vb, def.Unit, ratio(vb, va))
		}
	}
	return code
}
