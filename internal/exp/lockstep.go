package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"vodcluster/internal/cluster"
	"vodcluster/internal/core"
	"vodcluster/internal/metrics"
	"vodcluster/internal/report"
	"vodcluster/internal/sim"
	"vodcluster/internal/stats"
	"vodcluster/internal/workload"
	"vodcluster/internal/zipf"
)

// Candidate is one policy under counterfactual comparison: a name and a
// scheduler factory, the same self-containment contract as sim.Config's
// NewScheduler.
type Candidate struct {
	Name         string
	NewScheduler func() cluster.Scheduler
}

// Lockstep replays the same arrival trace through several scheduling
// policies and scores every candidate decision-by-decision against a
// reference policy. All candidates at replication r run under the same seed
// (common random numbers): identical arrivals, identical retry/failure
// randomness, and — for randomized policies — identical per-decision RNG
// streams, so any difference between two journals is attributable to the
// policies alone. Decision journals from different policies align on the
// KindArrival sequence number, which the simulator assigns one per arriving
// request in arrival order regardless of policy.
type Lockstep struct {
	// Problem and Layout define the cluster every candidate runs on.
	Problem *core.Problem
	Layout  *core.Layout
	// Candidates are the compared policies; at least two distinct entries
	// (or one compared against itself) make a meaningful comparison.
	Candidates []Candidate
	// Reference names the candidate regret is measured against; "" means
	// the first candidate. The reference's regret against itself is
	// identically zero — a harness self-check.
	Reference string
	// Trace, when non-nil, is replayed for every replication (seeds still
	// vary the retry/failure/decision randomness). Nil generates one trace
	// per replication from the replication seed, mirroring the simulator's
	// own arrival streams exactly.
	Trace *workload.Trace
	// Duration bounds generated traces in seconds; 0 means
	// Problem.PeakPeriod.
	Duration float64
	// Runs is the number of replications. Runs > 1 gives the paired
	// regret summary a confidence interval.
	Runs int
	// Seed is the master seed; replication r runs under
	// stats.NewRNG(Seed).Derive(r).Seed(), the sim.RunMany convention.
	Seed int64
	// Workers bounds concurrent simulations across the (candidate,
	// replication) grid. 0 means GOMAXPROCS; the result is bit-identical
	// for every worker count.
	Workers int
	// Base is an optional base simulation configuration (resilience
	// policy, stream limit, warmup, sampling) applied identically to every
	// candidate. The harness overrides Problem, Layout, NewScheduler,
	// Trace, Duration, Seed, and NewHooks.
	Base sim.Config
}

// Divergence is one decision where a candidate chose differently from the
// reference over the same trace and seed.
type Divergence struct {
	// Rep is the replication the divergence occurred in.
	Rep int `json:"rep"`
	// Seq is the arrival-decision sequence number both journals align on.
	Seq int `json:"seq"`
	// Time and Video locate the request.
	Time  float64 `json:"t"`
	Video int     `json:"video"`
	// Why classifies the difference: "outcome: ...", "server: ...", or
	// "route: ..." (see sim.Decision.Divergent).
	Why string `json:"why"`
	// Ref and Got are the reference's and the candidate's decisions.
	Ref sim.Decision `json:"ref"`
	Got sim.Decision `json:"got"`
}

// CandidateRun is one candidate's evaluated side of a lockstep comparison.
type CandidateRun struct {
	// Name is the candidate's name.
	Name string
	// Results are the per-replication simulation results in run order.
	Results []metrics.Result
	// Journals are the per-replication arrival-decision journals, aligned
	// by Seq with every other candidate's journal of the same replication.
	Journals [][]sim.Decision
	// Divergences lists every decision where this candidate differed from
	// the reference, in (replication, sequence) order.
	Divergences []Divergence
	// Curves are the per-replication cumulative regret curves: Curves[r][k]
	// is the candidate's regret against the reference summed over arrival
	// decisions 0..k of replication r.
	Curves [][]float64
	// RepRegret is the total regret per replication — the paired
	// differences the summary is built from.
	RepRegret []float64
	// Regret summarizes RepRegret; Mean() ± CI95() is the paired-difference
	// estimate of how many more requests this candidate rejects than the
	// reference per replication.
	Regret stats.Summary
}

// FirstDivergence returns the earliest divergence in (replication, sequence)
// order, or nil when the candidate decided identically to the reference.
func (c *CandidateRun) FirstDivergence() *Divergence {
	if len(c.Divergences) == 0 {
		return nil
	}
	return &c.Divergences[0]
}

// LockstepResult is the full outcome of a lockstep comparison.
type LockstepResult struct {
	// Candidates are the evaluated sides, in Lockstep.Candidates order.
	Candidates []CandidateRun
	// Reference indexes the reference candidate within Candidates.
	Reference int
	// Arrivals is the per-replication arrival count, identical across
	// candidates by construction.
	Arrivals []int
	// Seed echoes the master seed for self-describing output.
	Seed int64
}

// Ref returns the reference candidate's run.
func (r *LockstepResult) Ref() *CandidateRun { return &r.Candidates[r.Reference] }

// generateTrace materializes the arrival trace replication rep would see if
// the simulator generated arrivals online at repSeed: the same substreams
// (1 = gaps, 2 = video choice), the same Poisson process, the same
// popularity-weighted sampler. Replaying it under repSeed therefore
// reproduces an online run of the same seed bit for bit.
func (ls *Lockstep) generateTrace(repSeed int64, duration float64) (*workload.Trace, error) {
	if ls.Problem.ArrivalRate <= 0 {
		return nil, fmt.Errorf("exp: lockstep needs a trace or a problem arrival rate")
	}
	arrivals := workload.Poisson{Lambda: ls.Problem.ArrivalRate}
	sampler, err := zipf.NewWeightedSampler(ls.Problem.Catalog.Popularities())
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(repSeed)
	arrRNG := rng.Derive(1)
	vidRNG := rng.Derive(2)
	tr := &workload.Trace{Meta: workload.TraceMeta{
		Videos:   ls.Problem.M(),
		Process:  arrivals.Name(),
		MeanRate: arrivals.Rate(),
		Duration: duration,
		Seed:     repSeed,
	}}
	t := 0.0
	for {
		t += arrivals.Next(arrRNG)
		if t > duration {
			break
		}
		tr.Requests = append(tr.Requests, workload.Request{Time: t, Video: sampler.Sample(vidRNG)})
	}
	return tr, nil
}

// Run evaluates every candidate over every replication and scores the
// journals. The (candidate, replication) grid runs in parallel under
// Workers; all scoring is sequential post-processing over dense result
// grids, so the outcome is independent of worker scheduling.
func (ls *Lockstep) Run() (*LockstepResult, error) {
	if ls.Problem == nil || ls.Layout == nil {
		return nil, fmt.Errorf("exp: lockstep needs a problem and a layout")
	}
	if len(ls.Candidates) == 0 {
		return nil, fmt.Errorf("exp: lockstep has no candidates")
	}
	if ls.Runs <= 0 {
		return nil, fmt.Errorf("exp: need at least one replication, got %d", ls.Runs)
	}
	refIdx := 0
	if ls.Reference != "" {
		refIdx = -1
		for i, c := range ls.Candidates {
			if c.Name == ls.Reference {
				refIdx = i
				break
			}
		}
		if refIdx < 0 {
			return nil, fmt.Errorf("exp: reference policy %q is not among the candidates", ls.Reference)
		}
	}
	duration := ls.Duration
	if duration <= 0 {
		duration = ls.Problem.PeakPeriod
	}

	// Per-replication seeds and traces, materialized up front on this
	// goroutine: every candidate at replication r shares both.
	seeds := make([]int64, ls.Runs)
	traces := make([]*workload.Trace, ls.Runs)
	master := stats.NewRNG(ls.Seed)
	for rep := 0; rep < ls.Runs; rep++ {
		seeds[rep] = master.Derive(int64(rep)).Seed()
		if ls.Trace != nil {
			traces[rep] = ls.Trace
		} else {
			tr, err := ls.generateTrace(seeds[rep], duration)
			if err != nil {
				return nil, err
			}
			traces[rep] = tr
		}
	}

	// One job per (candidate, replication), numbered candidate-major;
	// results land in dense grids indexed by the job's coordinates.
	results := make([][]metrics.Result, len(ls.Candidates))
	journals := make([][][]sim.Decision, len(ls.Candidates))
	errs := make([][]error, len(ls.Candidates))
	for ci := range ls.Candidates {
		results[ci] = make([]metrics.Result, ls.Runs)
		journals[ci] = make([][]sim.Decision, ls.Runs)
		errs[ci] = make([]error, ls.Runs)
	}
	runJobs(len(ls.Candidates)*ls.Runs, ls.Workers, func(k int) {
		ci, rep := k/ls.Runs, k%ls.Runs
		jr := &sim.DecisionJournal{}
		cfg := ls.Base
		cfg.Problem = ls.Problem
		cfg.Layout = ls.Layout
		cfg.NewScheduler = ls.Candidates[ci].NewScheduler
		cfg.Trace = traces[rep]
		cfg.Duration = duration
		cfg.Seed = seeds[rep]
		cfg.NewHooks = func() []sim.Hook { return []sim.Hook{jr} }
		results[ci][rep], errs[ci][rep] = sim.Run(cfg)
		journals[ci][rep] = jr.Arrivals()
	})

	for ci, cand := range ls.Candidates {
		for rep, err := range errs[ci] {
			if err != nil {
				return nil, fmt.Errorf("exp: candidate %q replication %d: %w", cand.Name, rep, err)
			}
		}
	}

	// Score sequentially: per-decision regret against the reference journal
	// of the same replication, cumulative curves, and divergence records.
	out := &LockstepResult{
		Candidates: make([]CandidateRun, len(ls.Candidates)),
		Reference:  refIdx,
		Arrivals:   make([]int, ls.Runs),
		Seed:       ls.Seed,
	}
	for rep := 0; rep < ls.Runs; rep++ {
		out.Arrivals[rep] = len(journals[refIdx][rep])
	}
	for ci, cand := range ls.Candidates {
		cr := CandidateRun{
			Name:     cand.Name,
			Results:  results[ci],
			Journals: journals[ci],
			Curves:   make([][]float64, ls.Runs),
		}
		for rep := 0; rep < ls.Runs; rep++ {
			ref := journals[refIdx][rep]
			got := journals[ci][rep]
			if len(got) != len(ref) {
				// Unreachable: one KindArrival decision per request of a
				// shared trace, whatever the policy.
				return nil, fmt.Errorf("exp: candidate %q replication %d journaled %d arrivals, reference %d",
					cand.Name, rep, len(got), len(ref))
			}
			curve := make([]float64, len(got))
			total := 0.0
			for k := range got {
				total += got[k].Loss() - ref[k].Loss()
				curve[k] = total
				if why := ref[k].Divergent(got[k]); why != "" {
					cr.Divergences = append(cr.Divergences, Divergence{
						Rep: rep, Seq: got[k].Seq, Time: got[k].Time, Video: got[k].Video,
						Why: why, Ref: ref[k], Got: got[k],
					})
				}
			}
			cr.Curves[rep] = curve
			cr.RepRegret = append(cr.RepRegret, total)
			cr.Regret.Add(total)
		}
		out.Candidates[ci] = cr
	}
	return out, nil
}

// SummaryTable renders the paired comparison: one row per candidate with
// its mean regret ± 95% CI against the reference, divergence counts, and
// the first divergence point.
func (r *LockstepResult) SummaryTable() *report.Table {
	t := report.NewTable("policy", "regret_mean", "regret_ci95", "divergences", "first_div_seq", "first_div_t", "reject_pct")
	for i := range r.Candidates {
		c := &r.Candidates[i]
		tag := c.Name
		if i == r.Reference {
			tag += " (ref)"
		}
		firstSeq, firstT := -1, 0.0
		if d := c.FirstDivergence(); d != nil {
			firstSeq, firstT = d.Seq, d.Time
		}
		var rej stats.Summary
		for _, res := range c.Results {
			rej.Add(100 * res.RejectionRate)
		}
		t.AddRowf(tag, c.Regret.Mean(), c.Regret.CI95(), len(c.Divergences), firstSeq, firstT, rej.Mean())
	}
	return t
}

// CurveTable renders the cumulative regret curves averaged over
// replications, sampled every stride arrival decisions (stride <= 1 means
// every decision). Rows stop at the shortest replication so every sampled
// point averages the same number of curves.
func (r *LockstepResult) CurveTable(stride int) *report.Table {
	if stride <= 1 {
		stride = 1
	}
	minLen := 0
	for rep, n := range r.Arrivals {
		if rep == 0 || n < minLen {
			minLen = n
		}
	}
	headers := make([]string, 0, len(r.Candidates)+1)
	headers = append(headers, "seq")
	for _, c := range r.Candidates {
		headers = append(headers, c.Name)
	}
	t := report.NewTable(headers...)
	for k := stride - 1; k < minLen; k += stride {
		row := make([]any, 0, len(r.Candidates)+1)
		row = append(row, k)
		for i := range r.Candidates {
			c := &r.Candidates[i]
			mean := 0.0
			for rep := range c.Curves {
				mean += c.Curves[rep][k]
			}
			row = append(row, mean/float64(len(c.Curves)))
		}
		t.AddRowf(row...)
	}
	return t
}

// Report emits the paired summary and the stride-sampled regret curves
// through the shared emitter — stdout tables plus CSV mirrors when the
// emitter has a CSV directory.
func (r *LockstepResult) Report(em *Emitter, stride int) error {
	em.Printf("Lockstep comparison: %d candidates, %d replications, reference %s (seed %d)\n\n",
		len(r.Candidates), len(r.Arrivals), r.Candidates[r.Reference].Name, r.Seed)
	if err := em.Table("lockstep_summary", r.SummaryTable()); err != nil {
		return err
	}
	em.Printf("\nCumulative regret vs %s (mean over replications):\n\n", r.Candidates[r.Reference].Name)
	return em.Table("lockstep_regret_curve", r.CurveTable(stride))
}

// journalDoc is the JSON shape WriteJournal emits: enough to replay the
// analysis without the raw simulation (reference, per-candidate divergences,
// and per-replication regret totals).
type journalDoc struct {
	Seed       int64               `json:"seed"`
	Runs       int                 `json:"runs"`
	Reference  string              `json:"reference"`
	Arrivals   []int               `json:"arrivals_per_rep"`
	Candidates []journalCandidates `json:"candidates"`
}

type journalCandidates struct {
	Name        string       `json:"name"`
	RepRegret   []float64    `json:"rep_regret"`
	Divergences []Divergence `json:"divergences"`
}

// WriteJournal writes the divergence journal as indented JSON.
func (r *LockstepResult) WriteJournal(w io.Writer) error {
	doc := journalDoc{
		Seed:      r.Seed,
		Runs:      len(r.Arrivals),
		Reference: r.Candidates[r.Reference].Name,
		Arrivals:  r.Arrivals,
	}
	for i := range r.Candidates {
		c := &r.Candidates[i]
		divs := c.Divergences
		if divs == nil {
			divs = []Divergence{}
		}
		doc.Candidates = append(doc.Candidates, journalCandidates{
			Name: c.Name, RepRegret: c.RepRegret, Divergences: divs,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
