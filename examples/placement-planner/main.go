// Placement-planner: the paper's three worked examples (Figures 1–3),
// reproduced exactly.
//
//   - Figure 1: bounded Adams divisor replication of 5 videos on 3 servers
//     with 3 replicas of storage each — watch the replica vector evolve as
//     the budget grows, always duplicating the video whose replicas carry
//     the greatest communication weight.
//
//   - Figure 2: Zipf-interval replication of 7 videos on 4 servers — the
//     popularity range is split into 4 Zipf-skewed intervals and each
//     interval maps to a replica count.
//
//   - Figure 3: smallest-load-first placement on 4 servers — the heaviest
//     replica goes to the least-loaded feasible server, round by round.
//
//     go run ./examples/placement-planner
package main

import (
	"fmt"
	"log"

	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/report"
	"vodcluster/internal/zipf"
)

func main() {
	figure1()
	figure2()
	figure3()
}

// problem builds a small fixed-rate instance with the given Zipf skew.
func problem(m, n int, theta float64, replicasPerServer int) *core.Problem {
	catalog, err := core.NewCatalog(m, theta, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		log.Fatal(err)
	}
	p := &core.Problem{
		Catalog:            catalog,
		NumServers:         n,
		StoragePerServer:   float64(replicasPerServer) * catalog[0].SizeBytes(),
		BandwidthPerServer: core.Gbps,
		ArrivalRate:        10.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}
	return p
}

func figure1() {
	fmt.Println("=== Figure 1: bounded Adams divisor replication (5 videos, 3 servers) ===")
	p := problem(5, 3, 0.75, 3) // cluster capacity: 9 replicas
	t := report.NewTable("budget", "r1", "r2", "r3", "r4", "r5", "max weight")
	for budget := 5; budget <= 9; budget++ {
		r, err := replicate.BoundedAdams{}.Replicate(p, budget)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRowf(budget, r[0], r[1], r[2], r[3], r[4], replicate.MaxWeight(p, r))
	}
	fmt.Println(t)
	fmt.Println("each extra replica goes to the video whose replicas currently carry")
	fmt.Println("the greatest communication weight, capped at one replica per server.")
	fmt.Println()
}

func figure2() {
	fmt.Println("=== Figure 2: Zipf-interval replication (7 videos, 4 servers) ===")
	p := problem(7, 4, 0.6, 4) // capacity: 16 replicas
	budget := 13               // the figure's scenario: 13 replicas
	zr := replicate.ZipfInterval{}
	u, err := zr.Param(p, budget)
	if err != nil {
		log.Fatal(err)
	}
	r, err := zr.Replicate(p, budget)
	if err != nil {
		log.Fatal(err)
	}
	top := p.Catalog[0].Popularity + p.Catalog[p.M()-1].Popularity
	bounds := zipf.Partition(top, p.N(), u)
	fmt.Printf("binary-searched interval parameter u = %.4f\n", u)
	fmt.Printf("interval boundaries z (top %.4f → 0):", top)
	for _, z := range bounds {
		fmt.Printf(" %.4f", z)
	}
	fmt.Println()
	t := report.NewTable("video", "popularity", "interval", "replicas")
	for v := 0; v < p.M(); v++ {
		interval := 1
		for j := 1; j < p.N(); j++ {
			if p.Catalog[v].Popularity <= bounds[j] {
				interval = j + 1
			}
		}
		t.AddRowf(v+1, p.Catalog[v].Popularity, interval, r[v])
	}
	fmt.Println(t)
	total := 0
	for _, ri := range r {
		total += ri
	}
	fmt.Printf("total replicas: %d of budget %d\n\n", total, budget)
}

func figure3() {
	fmt.Println("=== Figure 3: smallest-load-first placement (8 videos, 4 servers) ===")
	p := problem(8, 4, 0.75, 4)
	r, err := replicate.BoundedAdams{}.Replicate(p, 14)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := place.SmallestLoadFirst{}.Place(p, r)
	if err != nil {
		log.Fatal(err)
	}
	w := layout.Weights(p)
	t := report.NewTable("video", "replicas", "weight", "servers")
	for v := 0; v < p.M(); v++ {
		t.AddRowf(v+1, len(layout.Servers[v]), w[v], fmt.Sprint(layout.Servers[v]))
	}
	fmt.Println(t)
	loads := layout.ServerLoads(p)
	fmt.Printf("server loads: %v\n", loads)
	fmt.Printf("imbalance: Eq.2 L=%.4f, Eq.3 L=%.4f (Theorem 4.2 bound: %.4f)\n",
		core.ImbalanceMax(loads), core.ImbalanceStd(loads), place.TheoremBound(p, r))
}
