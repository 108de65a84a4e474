// Rejection-sweep: a Figure-4/5 style experiment through the public API.
//
// For each replication/placement combination, sweep the arrival rate from
// light load to beyond the cluster's saturation point (40 requests/minute on
// the paper's cluster) and chart the rejection rate. The whole grid —
// combinations × rates × replications — evaluates in parallel on the
// experiment harness (internal/exp), with results independent of the worker
// count. The ranking the paper reports — Zipf replication +
// smallest-load-first placement dominating the classification + round-robin
// baseline, with the gap closing as the replication degree rises —
// reproduces here.
//
//	go run ./examples/rejection-sweep
package main

import (
	"fmt"
	"log"

	"vodcluster"
	"vodcluster/internal/config"
	"vodcluster/internal/exp"
	"vodcluster/internal/sim"
)

func main() {
	lambdas := []float64{16, 24, 32, 36, 40, 44}
	combos := [][2]string{
		{"zipf", "slf"},
		{"zipf", "roundrobin"},
		{"classification", "slf"},
		{"classification", "roundrobin"},
	}

	for _, degree := range []float64{1.2, 2.0} {
		var seed int64
		const runs = 10
		series := make([]exp.Series, 0, len(combos))
		for _, combo := range combos {
			s := config.Paper()
			s.Degree = degree
			s.Replicator, s.Placer = combo[0], combo[1]
			seed = s.Seed
			p, layout, sched, err := vodcluster.Pipeline(s)
			if err != nil {
				log.Fatal(err)
			}
			series = append(series, exp.ArrivalSeries(combo[0]+"+"+combo[1],
				sim.Config{Problem: p, Layout: layout, NewScheduler: sched}))
		}

		sweep := &exp.Sweep{Xs: lambdas, Series: series, Runs: runs, Seed: seed}
		grid, err := sweep.Run()
		if err != nil {
			log.Fatal(err)
		}

		emit := &exp.Emitter{}
		table := sweep.Table(grid, "λ (req/min)", exp.RejectionPct,
			[]string{"λ (req/min)", "zipf+slf", "zipf+rr", "class+slf", "class+rr"})
		if err := emit.Table(fmt.Sprintf("rejection-deg%.1f", degree), table); err != nil {
			log.Fatal(err)
		}
		chart := sweep.Chart(grid,
			fmt.Sprintf("Rejection rate (%%) vs arrival rate — degree %.1f, θ=0.75", degree),
			"arrival rate (req/min)", "rejection (%)", exp.RejectionPct)
		if err := emit.Chart(chart); err != nil {
			log.Fatal(err)
		}
		emit.Printf("\n")
	}
}
