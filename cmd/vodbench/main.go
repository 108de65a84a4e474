// Command vodbench regenerates the paper's evaluation figures on the
// simulated cluster and prints each as a table plus an ASCII chart, so the
// reproduced curve shapes can be compared with the paper directly.
//
//	vodbench -fig 4        # Fig. 4: rejection rate vs λ per replication degree
//	vodbench -fig 5        # Fig. 5: rejection rate vs λ per algorithm combo
//	vodbench -fig 6        # Fig. 6: load imbalance L(%) vs λ per combo
//	vodbench -fig sa       # §4.3: simulated annealing for scalable bit rates
//	vodbench -fig sens     # §5.2: sensitivity to M, N, and bit rate
//	vodbench -fig redirect # §6: request redirection over the backbone
//	vodbench -fig avail    # availability: failures vs replication degree
//	vodbench -fig dynamic  # runtime dynamic replication under a popularity shift
//	vodbench -fig disk     # disk subsystem: bottleneck + striping granularity
//	vodbench -fig hetero   # heterogeneous cluster placement policies
//	vodbench -fig hier     # hierarchical server network media mapping
//	vodbench -fig striping # replication vs wide striping under failures
//	vodbench -fig erlang   # simulator validation against the Erlang-B loss formula
//	vodbench -fig all      # everything
//
// Use -quick for a fast low-replication pass, -runs to set the number of
// simulation replications per point, and -workers to bound the parallel
// simulations (0 = GOMAXPROCS). Sweeps run on the internal/exp harness, so
// results are identical for every -workers value at the same seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"vodcluster/internal/exp"
)

// benchConfig carries the shared harness knobs into each figure generator.
type benchConfig struct {
	runs    int
	seed    int64
	quick   bool
	workers int
	emit    *exp.Emitter
	// Annealing overrides for the §4.3 runner (-fig sa): 0 / 0 / -1 mean
	// "use the figure's own schedule".
	annealSteps  int
	annealChains int
	annealSeed   int64
}

// figures maps -fig values to generators, in the order -fig all runs them.
var figures = []struct {
	name string
	gen  func(benchConfig) error
}{
	{"4", figure4},
	{"5", figure5},
	{"6", figure6},
	{"sa", figureSA},
	{"sens", figureSensitivity},
	{"redirect", figureRedirect},
	{"avail", figureAvail},
	{"dynamic", figureDynamic},
	{"disk", figureDisk},
	{"hetero", figureHetero},
	{"hier", figureHierarchy},
	{"striping", figureStriping},
	{"erlang", figureErlang},
}

func main() {
	fig, cfg := parseArgs(os.Args[0], os.Args[1:])
	if err := runFigure(fig, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "vodbench:", err)
		os.Exit(1)
	}
}

// parseArgs reads the command line into the figure to run and the harness
// knobs; a bad flag exits, as flag.Parse does.
func parseArgs(name string, args []string) (string, benchConfig) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fig := fs.String("fig", "all", "which figure to regenerate: 4|5|6|sa|sens|redirect|avail|dynamic|disk|hetero|hier|striping|erlang|all")
	runs := fs.Int("runs", 20, "simulation replications per data point")
	seed := fs.Int64("seed", 42, "master random seed")
	quick := fs.Bool("quick", false, "coarser sweeps and fewer runs, for a fast look")
	csvDir := fs.String("csv", "", "also write every table as CSV into this directory")
	workers := fs.Int("workers", 0, "parallel simulations across each sweep; 0 = GOMAXPROCS, 1 = sequential")
	annealSteps := fs.Int("anneal-steps", 0, "§4.3 annealer: cap proposals per chain (0 = figure default)")
	annealChains := fs.Int("anneal-chains", 0, "§4.3 annealer: parallel independent chains (0 = figure default)")
	annealSeed := fs.Int64("anneal-seed", -1, "§4.3 annealer: seed override (-1 = use -seed)")
	fs.Parse(args)

	cfg := benchConfig{
		runs:         *runs,
		seed:         *seed,
		quick:        *quick,
		workers:      *workers,
		emit:         &exp.Emitter{CSVDir: *csvDir},
		annealSteps:  *annealSteps,
		annealChains: *annealChains,
		annealSeed:   *annealSeed,
	}
	if cfg.quick && cfg.runs > 5 {
		cfg.runs = 5
	}
	return *fig, cfg
}

func runFigure(fig string, cfg benchConfig) error {
	if fig == "all" {
		for _, f := range figures {
			if err := f.gen(cfg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, f := range figures {
		if f.name == fig {
			return f.gen(cfg)
		}
	}
	return fmt.Errorf("unknown figure %q", fig)
}
