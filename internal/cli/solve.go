package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mpcgraph"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/registry"
)

// runSolve dispatches one problem through the unified Solve API and
// reports the full audited Report.
func runSolve(args []string, env Env) error {
	fs := flag.NewFlagSet("mpcgraph solve", flag.ContinueOnError)
	fs.SetOutput(env.Stderr)
	var (
		problemName  = fs.String("problem", "", "problem to solve (see mpcgraph list)")
		modelName    = fs.String("model", mpcgraph.ModelMPC.String(), "computation model: mpc or congested-clique")
		inPath       = fs.String("in", "", "instance file in any supported format ('-' reads stdin)")
		formatName   = fs.String("format", "", "input format override (el, wel, dimacs, metis, mm); required with -in -")
		scenarioName = fs.String("scenario", "", "generate the instance from this catalog scenario instead of a file")
		n            = fs.Int("n", 0, "scenario vertex count (0 = the scenario's default)")
		seed         = fs.Uint64("seed", 1, "seed for scenario generation and the algorithm's random choices")
		eps          = fs.Float64("eps", 0.1, "approximation slack where applicable")
		memFactor    = fs.Float64("memory-factor", 0, "per-machine memory = factor*n words (0 = default 16)")
		strict       = fs.Bool("strict", false, "fail on any simulated memory/bandwidth violation")
		workers      = fs.Int("workers", 0, "parallel workers (0 = all cores, 1 = sequential); results identical for every value")
		timeout      = fs.Duration("timeout", 0, "wall-clock deadline for the solve (0 = none); exceeding it aborts between simulated rounds with exit code 5")
		jsonOut      = fs.Bool("json", false, "emit the report as one JSON object on stdout")
		solutionPath = fs.String("solution", "", "write the solution (vertex ids or matched pairs) to this file ('-' for stdout)")
		trace        = fs.Bool("trace", false, "stream per-round progress to stderr")
		params       = paramFlag{}
	)
	fs.Var(params, "param", "scenario parameter key=value (repeatable, comma-separable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *problemName == "" {
		return fmt.Errorf("solve requires -problem (see mpcgraph list)")
	}
	if *jsonOut && *solutionPath == "-" {
		return fmt.Errorf("-solution - would interleave with the -json report on stdout; write the solution to a file")
	}
	problem, err := parseProblem(*problemName)
	if err != nil {
		return err
	}
	model, err := parseModel(*modelName)
	if err != nil {
		return err
	}
	d, source, err := loadInstance(env, *inPath, *formatName, *scenarioName, *n, *seed, params)
	if err != nil {
		return err
	}

	opts := mpcgraph.Options{
		Seed:         *seed,
		Eps:          *eps,
		MemoryFactor: *memFactor,
		Strict:       *strict,
		Workers:      *workers,
		Model:        model,
	}
	if *trace {
		opts.Trace = func(ev mpcgraph.TraceEvent) {
			fmt.Fprintf(env.Stderr, "round %d: words=%d active=%d\n", ev.Round, ev.LiveWords, ev.ActiveVertices)
		}
	}
	var instance mpcgraph.Instance = d.G
	if d.WG != nil {
		instance = d.WG
	}
	if !*jsonOut {
		fmt.Fprintf(env.Stdout, "instance: n=%d m=%d maxdeg=%d (%s)\n",
			d.G.NumVertices(), d.G.NumEdges(), d.G.MaxDegree(), source)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := mpcgraph.Solve(ctx, instance, problem, opts)
	if err != nil {
		return err
	}
	if err := registry.Validate(d.G, rep); err != nil {
		return fmt.Errorf("internal error: %w", err)
	}
	if *jsonOut {
		view := registry.NewReportView(rep, d.G.NumVertices(), d.G.NumEdges())
		view.Valid = true
		if err := json.NewEncoder(env.Stdout).Encode(view); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(env.Stdout, "%s/%s: %s (validated)\n", rep.Problem, rep.Model, summary(rep))
		fmt.Fprintf(env.Stdout, "cost: rounds=%d phases=%d maxMachineLoad=%d words totalComm=%d words violations=%d\n",
			rep.Rounds, rep.Phases, rep.MaxMachineWords, rep.TotalWords, rep.Violations)
		for _, st := range rep.Stages {
			fmt.Fprintf(env.Stdout, "  stage %-16s rounds=%-4d words=%d\n", st.Name, st.Rounds, st.Words)
		}
	}
	if *solutionPath != "" {
		return writeSolution(*solutionPath, env, rep)
	}
	return nil
}

// summary renders the text report's one-line payload summary.
func summary(rep *mpcgraph.Report) string {
	switch rep.Problem {
	case mpcgraph.ProblemMIS:
		return fmt.Sprintf("MIS size=%d", graph.CountMarked(rep.InMIS))
	case mpcgraph.ProblemMaximalMatching:
		return fmt.Sprintf("maximal matching size=%d", rep.M.Size())
	case mpcgraph.ProblemVertexCover:
		return fmt.Sprintf("vertex cover size=%d dualLowerBound=%.1f", graph.CountMarked(rep.InCover), rep.FractionalWeight)
	case mpcgraph.ProblemWeightedMatching:
		return fmt.Sprintf("weighted matching size=%d value=%.4g", rep.M.Size(), rep.Value)
	default:
		return fmt.Sprintf("matching size=%d", rep.M.Size())
	}
}

// writeSolution writes the solution payload in registry.RenderSolution's
// form to path, or to stdout for "-".
func writeSolution(path string, env Env, rep *mpcgraph.Report) error {
	w := env.Stdout
	var f *os.File
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		w = f
	}
	if err := registry.RenderSolution(w, rep); err != nil {
		if f != nil {
			_ = f.Close() // the render error is the one worth reporting
		}
		return err
	}
	if f != nil {
		// A failed flush on Close would otherwise report a truncated
		// solution file as success.
		return f.Close()
	}
	return nil
}
