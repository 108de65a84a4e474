package vodcluster_test

// Integration tests asserting the paper's qualitative findings — the curve
// shapes of Figures 4-6 — hold on the reproduced system. Each test uses
// reduced run counts to stay fast while leaving comfortable margins; the
// full-resolution curves live in cmd/vodbench and EXPERIMENTS.md.

import (
	"testing"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/exp"
	"vodcluster/internal/metrics"
	"vodcluster/internal/sim"
)

// comboScenario is the paper scenario at skew θ, replication degree, and
// one replication+placement pairing.
func comboScenario(theta, degree float64, repl, plac string) config.Scenario {
	s := config.Paper()
	s.Theta = theta
	s.Degree = degree
	s.Replicator, s.Placer = repl, plac
	return s
}

// aggregateAt simulates scenario s's layout, built once for its peak rate,
// at one arrival rate with `runs` replications under seed 42.
func aggregateAt(tb testing.TB, s config.Scenario, lambdaPerMin float64, runs int) *metrics.Aggregate {
	tb.Helper()
	p, layout, sched, err := vodcluster.Pipeline(s)
	if err != nil {
		tb.Fatal(err)
	}
	sw := &exp.Sweep{
		Xs:     []float64{lambdaPerMin},
		Series: []exp.Series{exp.ArrivalSeries("point", sim.Config{Problem: p, Layout: layout, NewScheduler: sched})},
		Runs:   runs,
		Seed:   42,
	}
	grid, err := sw.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return grid[0][0].Agg
}

// rejectionAt measures the mean rejection rate of a combo at one arrival
// rate.
func rejectionAt(t *testing.T, theta, degree float64, repl, plac string, lambdaPerMin float64, runs int) float64 {
	t.Helper()
	return aggregateAt(t, comboScenario(theta, degree, repl, plac), lambdaPerMin, runs).RejectionRate.Mean()
}

// TestFigure4Shape: rejection falls as the replication degree grows, and the
// largest improvement comes from the first step above no replication.
func TestFigure4Shape(t *testing.T) {
	const lambda = 40 // saturation: rejections are visible here
	r10 := rejectionAt(t, 0.75, 1.0, "zipf", "slf", lambda, 10)
	r12 := rejectionAt(t, 0.75, 1.2, "zipf", "slf", lambda, 10)
	r20 := rejectionAt(t, 0.75, 2.0, "zipf", "slf", lambda, 10)
	if r12 >= r10 {
		t.Fatalf("degree 1.2 (%.4f) not better than non-replication (%.4f)", r12, r10)
	}
	if r20 > r10 {
		t.Fatalf("degree 2.0 (%.4f) worse than non-replication (%.4f)", r20, r10)
	}
	// "The rejection rate decreases dramatically from non-replication to
	// low replication degree": the 1.0→1.2 drop dominates 1.2→2.0.
	if (r10 - r12) < (r12 - r20) {
		t.Fatalf("first replication step not dominant: 1.0→1.2 drop %.4f, 1.2→2.0 drop %.4f",
			r10-r12, r12-r20)
	}
}

// TestFigure5Shape: the ranking of the four algorithm combinations at low
// degree — Zipf+SLF best, classification+RR worst, and the Zipf/SLF pair
// closing most of the gap on its own.
func TestFigure5Shape(t *testing.T) {
	const lambda, degree = 40, 1.2
	zipfSLF := rejectionAt(t, 0.75, degree, "zipf", "slf", lambda, 10)
	zipfRR := rejectionAt(t, 0.75, degree, "zipf", "roundrobin", lambda, 10)
	classSLF := rejectionAt(t, 0.75, degree, "classification", "slf", lambda, 10)
	classRR := rejectionAt(t, 0.75, degree, "classification", "roundrobin", lambda, 10)
	if zipfSLF > classRR {
		t.Fatalf("zipf+slf (%.4f) worse than classification+rr (%.4f)", zipfSLF, classRR)
	}
	// "The Zipf replication with the round-robin placement and with the
	// smallest load first placement have nominal differences": within a
	// factor of ~2 of each other, both clearly below classification+RR.
	if zipfRR > classRR {
		t.Fatalf("zipf+rr (%.4f) worse than classification+rr (%.4f)", zipfRR, classRR)
	}
	if classSLF > classRR*1.25+0.005 {
		t.Fatalf("classification+slf (%.4f) much worse than classification+rr (%.4f)", classSLF, classRR)
	}
}

// TestFigure5GapClosesWithDegree: the advantage of Zipf+SLF over
// classification+RR shrinks as the replication degree approaches full.
func TestFigure5GapClosesWithDegree(t *testing.T) {
	const lambda = 40
	gapLow := rejectionAt(t, 0.75, 1.2, "classification", "roundrobin", lambda, 10) -
		rejectionAt(t, 0.75, 1.2, "zipf", "slf", lambda, 10)
	gapHigh := rejectionAt(t, 0.75, 2.0, "classification", "roundrobin", lambda, 10) -
		rejectionAt(t, 0.75, 2.0, "zipf", "slf", lambda, 10)
	if gapHigh > gapLow+0.005 {
		t.Fatalf("gap grew with degree: %.4f → %.4f", gapLow, gapHigh)
	}
}

// TestSkewSensitivity: the benefit of popularity-aware replication shrinks
// as the skew parameter θ falls (Fig. 4a vs 4c).
func TestSkewSensitivity(t *testing.T) {
	const lambda = 40
	gapHighSkew := rejectionAt(t, 0.75, 1.2, "classification", "roundrobin", lambda, 10) -
		rejectionAt(t, 0.75, 1.2, "zipf", "slf", lambda, 10)
	gapLowSkew := rejectionAt(t, 0.25, 1.2, "classification", "roundrobin", lambda, 10) -
		rejectionAt(t, 0.25, 1.2, "zipf", "slf", lambda, 10)
	if gapLowSkew > gapHighSkew+0.01 {
		t.Fatalf("algorithm gap larger at low skew: θ=0.25 gap %.4f vs θ=0.75 gap %.4f",
			gapLowSkew, gapHighSkew)
	}
}

// TestFigure6Shape: the measured load imbalance (capacity-normalized, the
// variant tracing the paper's curve) rises from light load toward a mid-load
// peak, collapses past saturation, and the classification+RR baseline stays
// above Zipf+SLF throughout the loaded region.
func TestFigure6Shape(t *testing.T) {
	imbalanceAt := func(repl, plac string, lambda float64) float64 {
		return aggregateAt(t, comboScenario(0.75, 1.2, repl, plac), lambda, 10).ImbalanceCapAvg.Mean()
	}
	zipfMid := imbalanceAt("zipf", "slf", 32)
	classMid := imbalanceAt("classification", "roundrobin", 32)
	if zipfMid > classMid {
		t.Fatalf("zipf+slf imbalance (%.4f) above classification+rr (%.4f) at mid load",
			zipfMid, classMid)
	}
	classLight := imbalanceAt("classification", "roundrobin", 8)
	if classMid <= classLight {
		t.Fatalf("imbalance did not rise from light load: %.4f → %.4f", classLight, classMid)
	}
	classOver := imbalanceAt("classification", "roundrobin", 60) // 150% of saturation
	if classOver > classMid {
		t.Fatalf("imbalance did not collapse past saturation: %.4f → %.4f", classMid, classOver)
	}
}

// TestRedirectionHelps: enabling backbone redirection on the paper layout
// strictly reduces the rejection rate at saturation (§6).
func TestRedirectionHelps(t *testing.T) {
	rej := func(backbone float64) float64 {
		s := config.Paper()
		s.Degree = 1.2
		s.BackboneGbps = backbone
		p, layout, sched, err := vodcluster.Pipeline(s)
		if err != nil {
			t.Fatal(err)
		}
		agg, _, err := sim.RunMany(sim.Config{Problem: p, Layout: layout, NewScheduler: sched, Seed: 7}, 10)
		if err != nil {
			t.Fatal(err)
		}
		return agg.RejectionRate.Mean()
	}
	without := rej(0)
	with := rej(2)
	if without <= 0 {
		t.Skip("no rejections at this configuration; nothing to redirect")
	}
	if with >= without {
		t.Fatalf("redirection did not help: %.4f → %.4f", without, with)
	}
}

// TestSchedulerAblation: first-available and least-loaded scheduling dominate
// the paper's static round-robin at saturation.
func TestSchedulerAblation(t *testing.T) {
	s := config.Paper()
	s.Degree = 1.2
	p, layout, _, err := vodcluster.Pipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[string]float64{}
	for _, name := range []string{"static-rr", "first-available", "least-loaded"} {
		f, err := vodcluster.SchedulerFactory(name, false)
		if err != nil {
			t.Fatal(err)
		}
		var agg *metrics.Aggregate
		agg, _, err = sim.RunMany(sim.Config{Problem: p, Layout: layout, NewScheduler: f, Seed: 7}, 10)
		if err != nil {
			t.Fatal(err)
		}
		rates[name] = agg.RejectionRate.Mean()
	}
	if rates["first-available"] > rates["static-rr"]+1e-9 {
		t.Fatalf("first-available (%.4f) worse than static-rr (%.4f)",
			rates["first-available"], rates["static-rr"])
	}
	if rates["least-loaded"] > rates["first-available"]+1e-9 {
		t.Fatalf("least-loaded (%.4f) worse than first-available (%.4f)",
			rates["least-loaded"], rates["first-available"])
	}
}
