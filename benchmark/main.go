// Command benchmark is the repository's one benchmark: six named workloads
// over the paper's offline pipeline (replication → placement → simulated
// peak period, and the §4.3 annealer) and over the live admission daemon
// behind real loopback TCP. It prints every metric by name with its unit,
// checks that the outputs are correct, and on a separate traced pass records
// spans around its own calls into each layer to produce the per-layer
// numbers. BENCHMARK.json at the repository root is its contract; README.md
// in this directory explains the metrics, the workloads and the sizes.
//
//	go run ./benchmark --workload serve_single --seed 1 --seconds 16 --trace 0
//	go run ./benchmark -all -out benchmark/out/a.json
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"vodcluster/internal/obs"
)

// outDir receives span files and run details; .gitignore keeps it out of git.
const outDir = "benchmark/out"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 16, "how long the pass measures")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	all := flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
	out := flag.String("out", filepath.Join(outDir, "results.json"), "with -all: where the collected results go")
	detail := flag.String("detail", "", "also write this run's metrics with spread and sample count to this file")
	compare := flag.Bool("compare", false, "compare two -all result files: -compare A.json B.json")
	flag.Parse()

	// The load generator and the daemon share the machine; more processors
	// than two would measure a scaling this benchmark does not claim.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *all:
		return runAll(*seed, *seconds, *out)
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of %s\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1 and -seconds is positive")
		return 2
	}
	fmt.Printf("workload %s (%s), seed %d, %.0f s, %s\n", def.name, def.op, *seed, *seconds, stampLine())
	res, err := runWorkload(def, *seed, *seconds, *trace == 1, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res)
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if err := printContractLine(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return exitCode(res)
}

// exitCode is non-zero when any operation or check of the run failed.
func exitCode(res runResult) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult lists the run's metrics by name with unit, spread and sample
// count, then the operations tally.
func printResult(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-38s %16s %-6s %16s %16s %4s\n", "metric", "median", "unit", "min", "max", "n")
	var idle []string
	for _, n := range names {
		m := res.Metrics[n]
		if res.Trace == 1 && m.Value == 0 {
			idle = append(idle, n)
			continue
		}
		fmt.Printf("%-38s %16.6g %-6s %16.6g %16.6g %4d\n", n, m.Value, m.Unit, m.Min, m.Max, m.N)
	}
	if len(idle) > 0 {
		fmt.Printf("0, the workload never entered the layer: %s\n", strings.Join(idle, " "))
	}
	fmt.Printf("ops_attempted %d, ops_failed %d, failed_ratio %g\n", res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, msg := range res.Failures {
		fmt.Println("FAILED:", msg)
	}
}

// printContractLine prints the driver's result object as the last line of
// standard output.
func printContractLine(res runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func stampLine() string {
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, traffic over loopback, not a link",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// network says what the live workloads' traffic crossed.
const network = "loopback: generator and daemon share one process and one machine; no link was crossed"

// allResults is the file -all writes and -compare reads. Stamp says what the
// numbers were measured on; outside a git checkout (the driver's) its sha
// reads unknown.
type allResults struct {
	Stamp   obs.Manifest `json:"stamp"`
	Network string       `json:"network"`
	Runs    []runResult  `json:"runs"`
}

// runAll runs every workload in a process of its own, untraced then traced,
// and collects the details into one file.
func runAll(seed int64, seconds float64, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	results := allResults{Stamp: obs.NewManifest(), Network: network}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			detail := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, trace))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-detail", detail)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d: %v\n", w.name, trace, err)
				code = 1
			}
			var res runResult
			b, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d left no result: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			results.Runs = append(results.Runs, res)
		}
	}
	if err := writeJSON(out, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("results written to", out)
	return code
}
