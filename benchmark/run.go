package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts the operations of one run and the checks that failed. Both
// load-generator goroutines add to it, so the counters are atomic.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

// fail records one failed operation or check.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one attempted check and records it as failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted.Add(1)
	if !ok {
		t.fail(format, args...)
	}
}

// env is what a workload's set-up receives: the seed its inputs derive from,
// the tally its checks report to, and the tracer (nil on the untraced pass).
type env struct {
	seed  int64
	tally *tally
	tr    *tracer
	main  *track // spans of the coordinating goroutine; nil when untraced
}

// repResult is what one timed repetition measured.
type repResult struct {
	ops  float64       // units of work finished: events, proposals or decisions
	wall time.Duration // host time of the whole repetition
	// invalid, when set, says why the repetition measured the generator and
	// not the program; its numbers are left out.
	invalid string
}

// instance is one workload after set-up.
type instance interface {
	// rep runs one timed repetition on the inputs set-up built; traced says
	// whether to record spans around the calls it makes.
	rep(traced bool) (repResult, error)
	// layers measures this workload's layers in isolation within roughly
	// budget and stores the per-layer metrics it owns into out.
	layers(budget time.Duration, out map[string]float64) error
	// finish runs the end-of-run checks (leaks, cross-checks).
	finish(out map[string]float64) error
	// close releases everything set-up started.
	close()
}

// workloadDef describes one named workload.
type workloadDef struct {
	name string
	why  string
	// op says what ops_per_s counts.
	op    string
	setup func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{"fig4_sweep", "paper Fig. 4(a)+(b) grid through exp.Sweep: sim, cluster, workload, zipf and metrics do all the work; anneal and serve none", "ops = simulator events", setupFig4},
	{"plan_paper", "Pipeline plus the section 4.3 annealer at the paper's M=100, N=8: the planner at the size the live rebalancer uses", "ops = annealer proposals", setupPlanPaper},
	{"plan_scale", "the same planner at M=20000, N=64: a proposal costs about 2500 times the paper size, since nearly every one clones the best plan, and replicate's heap and place's sort show", "ops = annealer proposals", setupPlanScale},
	{"serve_single", "closed loop, one POST /open per round trip over loopback TCP: per-request front cost (read, parse, encode, flush) dominates", "ops = settled decisions", setupServeSingle},
	{"serve_batch", "closed loop, POST /open/batch of 256 per round trip: front cost is amortised, so route, mailbox, rank, commit and settle dominate", "ops = settled decisions", setupServeBatch},
	{"serve_churn", "open loop, Poisson 10000 POST /open per second with natural expiry, a backend failure and replica landings: the engine's write side", "ops = decisions correct within 10 ms of their due time", setupServeChurn},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRuns is how often the untraced pass sets the workload up; setup_s is
// the median, so one slow start does not decide it.
const setupRuns = 3

// runResult is a finished run: what the last stdout line and the detail
// file are built from.
type runResult struct {
	Workload  string              `json:"workload"`
	Trace     int                 `json:"trace"`
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]reported `json:"metrics"`
}

// runWorkload sets the workload up, repeats it for about seconds, runs its
// checks, and returns the pass's metrics: end-to-end when untraced, per-layer
// when traced.
func runWorkload(def workloadDef, seed int64, seconds float64, traced bool, outDir string) (runResult, error) {
	res := runResult{Workload: def.name, Seed: seed, Seconds: seconds, Metrics: map[string]reported{}}
	e := &env{seed: seed, tally: &tally{}}
	budget := time.Duration(seconds * float64(time.Second))

	var inst instance
	var setups sample
	if traced {
		res.Trace = 1
		e.tr = newTracer(def.name)
		e.main = e.tr.newTrack()
		var err error
		if inst, err = def.setup(e); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
	} else {
		for i := 0; i < setupRuns; i++ {
			if inst != nil {
				inst.close()
			}
			start := time.Now()
			var err error
			if inst, err = def.setup(e); err != nil {
				return res, fmt.Errorf("%s: set-up: %w", def.name, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	defer inst.close()

	// The traced pass spends a quarter of its time untraced, to have the
	// headline rate to compare against, a quarter traced, and the rest on
	// the layer measurements.
	plain := budget
	if traced {
		plain = budget / 4
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rate, ops, err := repeat(inst, plain, nil)
	if err != nil {
		return res, fmt.Errorf("%s: %w", def.name, err)
	}
	runtime.ReadMemStats(&after)

	layer := map[string]float64{}
	if traced {
		tracedRate, _, err := repeat(inst, budget/4, e.tr)
		if err != nil {
			return res, fmt.Errorf("%s: traced: %w", def.name, err)
		}
		e.tr.rep = 0
		layer["bench.trace_overhead_ratio"] = ratio(rate.median(), tracedRate.median())
		if ops > 0 {
			layer["go.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
			layer["go.bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
		}
		layer["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	}
	// The checks come straight after the repetitions, while the sessions the
	// generator holds open are still live.
	if err := inst.finish(layer); err != nil {
		return res, fmt.Errorf("%s: %w", def.name, err)
	}
	if traced {
		if err := inst.layers(budget/2, layer); err != nil {
			return res, fmt.Errorf("%s: layers: %w", def.name, err)
		}
		stats := e.tr.stats()
		spanMetrics(stats, layer)
		path, err := e.tr.write(outDir)
		if err != nil {
			return res, fmt.Errorf("%s: writing spans: %w", def.name, err)
		}
		fmt.Printf("spans of the traced pass (written to %s):\n", path)
		printStats(stats)
		for _, m := range perLayer {
			res.Metrics[m.Name] = report(m.Unit, sample{layer[m.Name]})
		}
	} else {
		res.Metrics["setup_s"] = report("s", setups)
		res.Metrics["ops_per_s"] = report("1/s", rate)
		rss, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		res.Metrics["peak_rss_mb"] = report("MB", sample{rss})
	}
	res.Attempted = e.tally.attempted.Load()
	res.Failed = e.tally.failed.Load()
	res.Failures = e.tally.msgs
	res.Correct = res.Failed == 0
	return res, nil
}

// repeat runs repetitions until budget has passed, and returns the valid
// ones' rates and their total operations. Invalid
// repetitions cost samples, not the run; only if twice the budget passes
// without a valid one does the run fail. With a tracer the repetitions record
// spans, numbered by repetition.
func repeat(inst instance, budget time.Duration, tr *tracer) (rate sample, ops float64, err error) {
	start := time.Now()
	for len(rate) == 0 || time.Since(start) < budget {
		if tr != nil {
			tr.rep++
		}
		r, err := inst.rep(tr != nil)
		if err != nil {
			return nil, 0, err
		}
		if r.invalid != "" {
			fmt.Println("repetition invalid, left out:", r.invalid)
			if time.Since(start) > 2*budget {
				return nil, 0, fmt.Errorf("no valid repetition in %s: %s", 2*budget, r.invalid)
			}
			continue
		}
		if r.wall <= 0 || r.ops <= 0 {
			return nil, 0, fmt.Errorf("repetition did no work (ops %g in %s)", r.ops, r.wall)
		}
		rate = append(rate, r.ops/r.wall.Seconds())
		ops += r.ops
	}
	return rate, ops, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
