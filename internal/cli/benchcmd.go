package cli

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"mpcgraph/internal/bench"
	"mpcgraph/internal/registry"
)

// runBench regenerates the experiment tables (E1..E18) through the
// experiment harness, in text or as one JSON object per table.
func runBench(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph bench", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		experiment = fs.String("experiment", "", "experiment id (E1..E18); empty runs all")
		seed       = fs.Uint64("seed", 2018, "root random seed")
		trials     = fs.Int("trials", 3, "trials per randomized cell")
		quick      = fs.Bool("quick", false, "reduced instance sizes")
		workers    = fs.Int("workers", 0, "parallel workers (0 = all cores, 1 = sequential); tables are identical for every value")
		jsonOut    = fs.Bool("json", false, "emit one JSON object per table instead of aligned text")
		check      = fs.Bool("check", false, "fail unless every registered (Problem, Model) pair has a valid benchmark entry")
		remote     = fs.String("remote", "", "base URL of a running mpcgraphd; registry-sweep solves (E18) run against the daemon, bit-identical to in-process")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trials < 0 {
		// Every experiment loops over trials; a negative count would run
		// none and print vacuous rows.
		return fmt.Errorf("-trials must be >= 0 (0 selects the default), got %d", *trials)
	}
	cfg := bench.Config{Seed: *seed, Trials: *trials, Quick: *quick, Workers: *workers}
	if *remote != "" {
		cfg.Solver = remoteSolver(*remote, 8, 2*time.Minute)
	}
	if *check {
		if err := bench.VerifyRegistryCoverage(bench.Config{Seed: *seed, Trials: 1, Quick: true, Workers: *workers}); err != nil {
			return err
		}
		fmt.Fprintf(env.Stdout, "registry coverage ok: %d algorithms benchmarked\n", len(registry.Pairs()))
		return nil
	}
	if *experiment == "" {
		if *jsonOut {
			return bench.RunAllJSON(cfg, env.Stdout)
		}
		bench.RunAll(cfg, env.Stdout)
		return nil
	}
	for _, id := range strings.Split(*experiment, ",") {
		tab, err := bench.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := tab.RenderJSON(env.Stdout); err != nil {
				return err
			}
			continue
		}
		tab.Render(env.Stdout)
	}
	return nil
}
