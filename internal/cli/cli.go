// Package cli implements the mpcgraph command-line tool: one binary
// with gen, solve, bench, list, serve, submit, batch, status and top
// subcommands
// over the unified Solve registry, the scenario catalog, the
// multi-format graphio layer and the internal/service solve daemon.
// The standalone cmd/mpcgraphd daemon binary is a shim over the serve
// subcommand, so every code path ships through this package.
//
// The tool's reproducibility contract: `mpcgraph solve` produces
// bit-identical Report costs for the same (scenario, seed, problem,
// model) whether the instance was generated in-process (-scenario) or
// round-tripped through any on-disk format (-in), because generation is
// deterministic in the seed and every reader reconstructs the exact
// edge set through the order-insensitive graph.Builder.
package cli

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mpcgraph"
	"mpcgraph/internal/graphio"
	"mpcgraph/internal/model"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

const usage = `mpcgraph — MPC graph-algorithm scenario engine (Ghaffari et al., PODC 2018)

Usage:
  mpcgraph <command> [flags]

Commands:
  gen     materialize a catalog scenario to a graph file
  solve   run one problem on an instance (file or scenario), report audited costs
  bench   regenerate the experiment tables (E1..E18)
  list    enumerate problems, models, algorithms, scenarios and formats
  serve   run the mpcgraphd solve daemon (job queue, result cache, trace streaming)
  submit  post one job to a running daemon (optionally wait for the result)
  batch   post many jobs (or a sweep) to a running daemon as one unit
  status  inspect a running daemon's job table
  top     live daemon dashboard: queue, cache hit rates, latency percentiles

Run "mpcgraph <command> -h" for the flags of one command.

Examples:
  mpcgraph gen -scenario rmat -n 65536 -seed 1 -out web.mtx.gz
  mpcgraph solve -problem mis -model mpc -in web.mtx.gz -json
  mpcgraph gen -scenario gnp -n 4096 -format el -out - | mpcgraph solve -problem vertex-cover -in - -format el
  mpcgraph solve -problem weighted-matching -scenario weighted-gnp -n 2048 -seed 7
  mpcgraph bench -experiment E5 -quick
  mpcgraph serve -addr 127.0.0.1:8080
  mpcgraph submit -problem mis -scenario gnp -n 4096 -seed 7 -wait
  mpcgraph batch -scenarios gnp,ring -seeds 1:50 -problems mis,vertex-cover -wait
  mpcgraph bench -experiment E18 -quick -remote http://127.0.0.1:8080
  mpcgraph top -interval 2s
  mpcgraph list`

// Env carries the process streams so tests can run the CLI
// hermetically.
type Env struct {
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// Run executes one mpcgraph invocation: args is everything after the
// program name. It returns an error instead of exiting, leaving the
// exit-code policy to the caller.
func Run(args []string, env Env) error {
	if len(args) == 0 {
		fmt.Fprintln(env.Stderr, usage)
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "gen":
		return runGen(rest, env)
	case "solve":
		return runSolve(rest, env)
	case "bench":
		return runBench(rest, env)
	case "list":
		return runList(rest, env)
	case "serve":
		return runServe(rest, env)
	case "submit":
		return runSubmit(rest, env)
	case "batch":
		return runBatch(rest, env)
	case "status":
		return runStatus(rest, env)
	case "top":
		return runTop(rest, env)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(env.Stdout, usage)
		return nil
	default:
		fmt.Fprintln(env.Stderr, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// paramFlag accumulates repeated -param key=value flags (comma-separated
// pairs are also accepted) into a map.
type paramFlag map[string]float64

func (p paramFlag) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, p[k]))
	}
	return strings.Join(parts, ",")
}

func (p paramFlag) Set(s string) error {
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok || key == "" {
			return fmt.Errorf("want key=value, got %q", pair)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad value in %q: %v", pair, err)
		}
		p[key] = v
	}
	return nil
}

// parseProblem resolves a kebab-case problem name against the registry's
// problem enumeration. The error wraps mpcgraph.ErrUnknownProblem, which
// the mpcgraph binary maps to its own exit code.
func parseProblem(name string) (mpcgraph.Problem, error) {
	return registry.ParseProblem(name)
}

// parseModel resolves a model name. The error wraps
// mpcgraph.ErrUnknownModel.
func parseModel(name string) (mpcgraph.Model, error) {
	return model.ParseModel(name)
}

// loadInstance materializes the instance a subcommand operates on: a
// scenario from the catalog, or a file in any supported format ("-"
// reads stdin; an explicit formatName overrides extension detection,
// and is required on stdin).
func loadInstance(env Env, inPath, formatName, scenarioName string, n int, seed uint64, params map[string]float64) (*graphio.Data, string, error) {
	switch {
	case scenarioName != "" && inPath != "":
		return nil, "", fmt.Errorf("-scenario and -in are mutually exclusive")
	case scenarioName != "":
		in, err := scenario.Generate(scenarioName, n, seed, params)
		if err != nil {
			return nil, "", err
		}
		d := &graphio.Data{G: in.G, WG: in.WG}
		return d, fmt.Sprintf("scenario %s (n=%d seed=%d)", scenarioName, in.G.NumVertices(), seed), nil
	case inPath == "-":
		if formatName == "" {
			return nil, "", fmt.Errorf("-in - (stdin) requires -format")
		}
		f, err := graphio.ParseFormat(formatName)
		if err != nil {
			return nil, "", err
		}
		r, err := graphio.NewReader(env.Stdin)
		if err != nil {
			return nil, "", err
		}
		d, err := graphio.Read(r, f)
		if err != nil {
			return nil, "", err
		}
		return d, "stdin", nil
	case inPath != "":
		f := graphio.FormatUnknown
		if formatName != "" {
			var err error
			f, err = graphio.ParseFormat(formatName)
			if err != nil {
				return nil, "", err
			}
		}
		d, err := graphio.ReadFileFormat(inPath, f)
		if err != nil {
			return nil, "", err
		}
		return d, inPath, nil
	default:
		return nil, "", fmt.Errorf("need an instance: -in <file> or -scenario <name> (see mpcgraph list)")
	}
}
