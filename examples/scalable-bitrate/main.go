// Scalable-bitrate: the §4.3 simulated-annealing optimizer on a storage-tight
// cluster where quality (encoding bit rate) and availability (replicas)
// genuinely compete.
//
// Each copy of a video may be encoded at any rate from a discrete set; the
// annealer maximizes Eq. 1 — mean bit rate + α · replication degree −
// β · load imbalance — under storage and outgoing-bandwidth constraints. The
// example prints the quality/availability split the annealer chooses per
// popularity tier, showing the paper's expected pattern: popular videos earn
// both more copies and higher rates.
//
//	go run ./examples/scalable-bitrate
package main

import (
	"fmt"
	"log"

	"vodcluster/internal/anneal"
	"vodcluster/internal/core"
	"vodcluster/internal/report"
)

func main() {
	catalog, err := core.NewCatalog(60, 0.75, 4*core.Mbps, 90*core.Minute)
	if err != nil {
		log.Fatal(err)
	}
	problem := &core.Problem{
		Catalog:            catalog,
		NumServers:         6,
		StoragePerServer:   40 * core.GB, // tight: ~14 copies at 4 Mb/s
		BandwidthPerServer: 1.2 * core.Gbps,
		ArrivalRate:        20.0 / core.Minute,
		PeakPeriod:         90 * core.Minute,
	}
	bp := &anneal.BitRateProblem{
		P:       problem,
		RateSet: []float64{2 * core.Mbps, 4 * core.Mbps, 6 * core.Mbps, 8 * core.Mbps},
	}

	init, err := bp.InitialSolution()
	if err != nil {
		log.Fatal(err)
	}
	before := bp.Evaluate(init)

	opts := anneal.DefaultOptions()
	opts.Seed = 11
	best, after, err := bp.Optimize(opts, 4)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("objective: %.3f → %.3f  (mean rate %.2f → %.2f Mb/s, degree %.2f → %.2f, L %.3f → %.3f)\n\n",
		before.Objective, after.Objective,
		before.MeanRateMbps, after.MeanRateMbps,
		before.Degree, after.Degree,
		before.Imbalance, after.Imbalance)

	// Summarize the annealed layout by popularity tier.
	t := report.NewTable("popularity tier", "videos", "avg copies", "avg rate (Mb/s)", "min..max rate")
	tiers := []struct {
		name     string
		from, to int // rank range, inclusive
	}{
		{"top 10%", 0, 5},
		{"10-30%", 6, 17},
		{"30-60%", 18, 35},
		{"bottom 40%", 36, 59},
	}
	for _, tier := range tiers {
		videos := 0
		copies := 0
		rateSum := 0.0
		minRate, maxRate := -1.0, 0.0
		for v := tier.from; v <= tier.to; v++ {
			videos++
			best.EachCopy(v, func(_ int, ri int16) {
				copies++
				r := bp.RateSet[ri] / core.Mbps
				rateSum += r
				if minRate < 0 || r < minRate {
					minRate = r
				}
				if r > maxRate {
					maxRate = r
				}
			})
		}
		t.AddRowf(tier.name, videos, float64(copies)/float64(videos), rateSum/float64(copies),
			fmt.Sprintf("%.0f..%.0f", minRate, maxRate))
	}
	fmt.Println(t)
}
