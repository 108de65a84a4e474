// Command vodplace computes a replication and placement plan for a VoD
// cluster and prints it: the replica count per video, the per-server
// placement, expected loads, the load-imbalance degree under both of the
// paper's definitions, and the Theorem 4.2 bound.
//
// Usage:
//
//	vodplace [-servers 8] [-videos 100] [-theta 0.75] [-degree 1.2]
//	         [-replicator zipf] [-placer slf] [-verbose]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"vodcluster"
	"vodcluster/internal/analytic"
	"vodcluster/internal/config"
	"vodcluster/internal/core"
	"vodcluster/internal/place"
	"vodcluster/internal/replicate"
	"vodcluster/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vodplace:", err)
		os.Exit(1)
	}
}

// run parses args, computes the plan and prints it to w. A bad flag is an
// error, not an exit, so the test can drive the command in-process.
func run(args []string, w io.Writer) error {
	s := config.Paper()
	fs := flag.NewFlagSet("vodplace", flag.ContinueOnError)
	fs.IntVar(&s.Servers, "servers", s.Servers, "number of servers N")
	fs.IntVar(&s.Videos, "videos", s.Videos, "number of videos M")
	fs.Float64Var(&s.Theta, "theta", s.Theta, "Zipf popularity skew θ")
	fs.Float64Var(&s.BitRateMbps, "bitrate", s.BitRateMbps, "encoding bit rate (Mb/s)")
	fs.Float64Var(&s.DurationMin, "duration", s.DurationMin, "video duration (minutes)")
	fs.Float64Var(&s.BandwidthGbps, "bandwidth", s.BandwidthGbps, "outgoing bandwidth per server (Gb/s)")
	fs.Float64Var(&s.StorageGB, "storage", s.StorageGB, "storage per server (GB); 0 derives from degree")
	fs.Float64Var(&s.LambdaPerMin, "lambda", s.LambdaPerMin, "peak arrival rate (requests/minute)")
	fs.Float64Var(&s.Degree, "degree", s.Degree, "target replication degree")
	fs.StringVar(&s.Replicator, "replicator", s.Replicator, "replication algorithm: adams|zipf|classification|uniform")
	fs.StringVar(&s.Placer, "placer", s.Placer, "placement algorithm: slf|roundrobin|greedy|random|wslf|bsr")
	verbose := fs.Bool("verbose", false, "print the full per-video placement")
	out := fs.String("out", "", "write the computed plan as JSON to this file (replayable by vodsim -plan)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	p, err := s.Problem()
	if err != nil {
		return err
	}
	r, err := vodcluster.ReplicatorByName(s.Replicator)
	if err != nil {
		return err
	}
	pl, err := vodcluster.PlacerByName(s.Placer)
	if err != nil {
		return err
	}
	layout, err := vodcluster.BuildLayout(p, r, pl, s.Degree)
	if err != nil {
		return err
	}

	sat, _ := p.SaturationArrivalRate()
	if p.Homogeneous() {
		capPerServer, _ := p.ReplicaCapacityPerServer()
		fmt.Fprintf(w, "cluster: N=%d servers, %.1f GB storage (%d replicas) and %.2f Gb/s out each\n",
			p.N(), p.StorageOf(0)/core.GB, capPerServer, p.BandwidthOf(0)/core.Gbps)
	} else {
		fmt.Fprintf(w, "cluster: N=%d heterogeneous servers, %.1f GB storage and %.2f Gb/s out in total\n",
			p.N(), p.TotalStorage()/core.GB, p.TotalBandwidth()/core.Gbps)
	}
	fmt.Fprintf(w, "catalog: M=%d videos, θ=%.3g, %.1f Mb/s, %.0f min (%.2f GB each)\n",
		p.M(), s.Theta, s.BitRateMbps, s.DurationMin, p.Catalog[0].SizeBytes()/core.GB)
	fmt.Fprintf(w, "workload: peak λ=%.3g req/min for %.0f min (saturation at %.3g req/min)\n\n",
		s.LambdaPerMin, s.DurationMin, sat*core.Minute)

	fmt.Fprintf(w, "plan: %s replication + %s placement, degree %.3f (%d replicas)\n",
		r.Name(), pl.Name(), layout.ReplicationDegree(), layout.TotalReplicas())
	fmt.Fprintf(w, "max per-replica weight (Eq. 8 objective): %.2f expected requests\n",
		replicate.MaxWeight(p, layout.ReplicaCounts()))
	loads := layout.ServerLoads(p)
	fmt.Fprintf(w, "load imbalance: Eq.2 L=%.4f  Eq.3 L=%.4f (Theorem 4.2 bound for slf: %.4f)\n",
		core.ImbalanceMax(loads), core.ImbalanceStd(loads), place.GeneralBound(p, layout.ReplicaCounts()))
	worst, ok := layout.BandwidthFeasible(p)
	fmt.Fprintf(w, "expected peak bandwidth: worst server at %.1f%% of capacity (feasible: %v)\n", 100*worst, ok)
	if pred, err := analytic.ReplicatedBlocking(p, layout); err == nil {
		pooled, _ := analytic.PooledBlocking(p)
		fmt.Fprintf(w, "predicted steady-state rejection (Erlang-B): %.3f%% (perfect pooling would give %.3f%%)\n", 100*pred, 100*pooled)
	}
	fmt.Fprintln(w)

	srv := report.NewTable("server", "replicas", "storage GB", "expected load", "expected Gb/s")
	used := layout.ServerStorageUsed(p)
	demand := layout.ServerBandwidthDemand(p)
	perServer := make([]int, p.N())
	for _, servers := range layout.Servers {
		for _, sv := range servers {
			perServer[sv]++
		}
	}
	for sv := 0; sv < p.N(); sv++ {
		srv.AddRowf(sv, perServer[sv], used[sv]/core.GB, loads[sv], demand[sv]/core.Gbps)
	}
	if err := srv.Fprint(w); err != nil {
		return err
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := config.NewPlan(s, layout).Save(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nplan written to %s\n", *out)
	}

	if *verbose {
		fmt.Fprintln(w)
		tv := report.NewTable("video", "popularity", "replicas", "weight", "servers")
		weights := layout.Weights(p)
		for v := 0; v < p.M(); v++ {
			tv.AddRowf(v, p.Catalog[v].Popularity, len(layout.Servers[v]), weights[v], fmt.Sprint(layout.Servers[v]))
		}
		if err := tv.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
