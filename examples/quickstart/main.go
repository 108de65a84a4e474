// Quickstart: the end-to-end pipeline in one page.
//
// Build the paper's cluster, compute an optimal replication with the bounded
// Adams divisor algorithm, place it with smallest-load-first, then simulate a
// 90-minute peak period of Poisson arrivals and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vodcluster"
	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/sim"
)

func main() {
	// A cluster of 8 servers, each with 1.8 Gb/s outgoing bandwidth and
	// room for 15 video replicas, serving 100 videos of 90 minutes encoded
	// at 4 Mb/s whose popularity follows a Zipf-like law with skew 0.75.
	catalog, err := core.NewCatalog(100, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		log.Fatal(err)
	}
	problem := &core.Problem{
		Catalog:            catalog,
		NumServers:         8,
		StoragePerServer:   15 * catalog[0].SizeBytes(),
		BandwidthPerServer: 1.8 * core.Gbps,
		ArrivalRate:        40.0 / core.Minute, // peak: 40 requests/minute
		PeakPeriod:         90 * core.Minute,
	}
	if err := problem.Validate(); err != nil {
		log.Fatal(err)
	}

	// Replication (how many copies per video) + placement (which servers).
	layout, err := vodcluster.BuildLayout(problem, replicate.BoundedAdams{}, place.SmallestLoadFirst{}, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layout: %d replicas for %d videos (degree %.2f)\n",
		layout.TotalReplicas(), problem.M(), layout.ReplicationDegree())
	fmt.Printf("hottest video has %d replicas; coldest has %d\n",
		len(layout.Servers[0]), len(layout.Servers[problem.M()-1]))
	loads := layout.ServerLoads(problem)
	fmt.Printf("expected load imbalance: Eq.2 L=%.4f (Theorem 4.2 bound %.2f requests)\n\n",
		core.ImbalanceMax(loads), place.TheoremBound(problem, layout.ReplicaCounts()))

	// Simulate one peak period under static round-robin scheduling.
	result, err := sim.Run(sim.Config{Problem: problem, Layout: layout, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one simulated peak period:", result)

	// Average over 20 independent runs for a stable estimate.
	agg, _, err := sim.RunMany(sim.Config{Problem: problem, Layout: layout, Seed: 7}, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("20-run aggregate:          ", agg)
}
