// Package registry is the dispatch table behind the unified Solve API:
// it maps a (Problem, Model) pair onto a runner that executes the
// corresponding algorithm on the corresponding metered simulator and
// returns one uniform Report. The public mpcgraph package, the mpcgraph
// CLI and the experiment harness all enumerate this table, so
// registering a new algorithm here makes it appear in the API, the CLI
// listing and the benchmarks with no further wiring — the slot follow-up
// work such as Behnezhad–Hajiaghayi–Harris (SPAA 2019) plugs into.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/model"
)

// Problem identifies one of the graph problems the paper solves.
type Problem int

const (
	// MIS is the maximal independent set of Theorem 1.1.
	MIS Problem = iota
	// MaximalMatching is an exact maximal matching via [LMSV11]
	// filtering (the Section 4.4.5 subroutine; Θ(log n) rounds at
	// S = Θ(n), the Section 1.2 baseline regime).
	MaximalMatching
	// ApproxMatching is the (2+ε)-approximate maximum matching of
	// Theorem 1.2.
	ApproxMatching
	// OnePlusEpsMatching is the (1+ε)-approximate maximum matching of
	// Corollary 1.3.
	OnePlusEpsMatching
	// VertexCover is the (2+ε)-approximate minimum vertex cover of
	// Theorem 1.2.
	VertexCover
	// WeightedMatching is the (2+ε)-approximate maximum weight matching
	// of Corollary 1.4. Requires a weighted input graph.
	WeightedMatching

	numProblems = int(WeightedMatching) + 1
)

// String returns the kebab-case name used by the CLI and reports.
func (p Problem) String() string {
	switch p {
	case MIS:
		return "mis"
	case MaximalMatching:
		return "maximal-matching"
	case ApproxMatching:
		return "approx-matching"
	case OnePlusEpsMatching:
		return "one-plus-eps-matching"
	case VertexCover:
		return "vertex-cover"
	case WeightedMatching:
		return "weighted-matching"
	default:
		return "unknown-problem"
	}
}

// Problems returns every defined problem in declaration order.
func Problems() []Problem {
	out := make([]Problem, numProblems)
	for i := range out {
		out[i] = Problem(i)
	}
	return out
}

// Options is the uniform knob set passed to every runner. Fields map
// 1:1 onto the public mpcgraph.Options.
type Options struct {
	// Seed makes every random choice reproducible.
	Seed uint64
	// Eps is the approximation slack ε where applicable (default 0.1).
	Eps float64
	// MemoryFactor sets per-machine memory to MemoryFactor·n words
	// (default 16).
	MemoryFactor float64
	// Strict makes simulated capacity/bandwidth violations fail the run.
	Strict bool
	// Workers bounds goroutine fan-out (0 = all cores, 1 = sequential).
	Workers int
	// Trace, when non-nil, observes every metered round of the run.
	Trace model.TraceFunc
}

// Input is the instance a runner operates on. G is always set; WG is
// additionally set for weighted problems.
type Input struct {
	G  *graph.Graph
	WG *graph.Weighted
}

// Report is the uniform result of every Solve run. The result payload
// fields are populated per problem (see their comments); the cost
// fields are always populated from the metered simulator.
type Report struct {
	// Problem and Model identify the algorithm that ran.
	Problem Problem
	Model   model.Model

	// InMIS marks the maximal independent set (MIS).
	InMIS []bool
	// M is the computed matching (all matching problems).
	M graph.Matching
	// InCover marks the vertex cover (VertexCover).
	InCover []bool
	// FractionalWeight is the dual fractional-matching weight, a lower
	// bound on the optimum cover size (VertexCover).
	FractionalWeight float64
	// Value is the total matched weight (WeightedMatching).
	Value float64

	// Rounds is the audited model round count.
	Rounds int
	// Phases counts the algorithm's outer phases (rank prefixes for MIS,
	// while-loop phases for the matching simulation, improvement
	// iterations for weighted matching).
	Phases int
	// MaxMachineWords is the largest per-round load on any machine or
	// player — the paper's Õ(n) memory claim as a measured output.
	MaxMachineWords int64
	// TotalWords is the total communication volume.
	TotalWords int64
	// Violations counts capacity/bandwidth violations (non-strict runs).
	Violations int
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration
	// Stages is the audited per-stage cost breakdown; Rounds and Words
	// of the entries sum to the report totals.
	Stages []model.StageCost
}

// Runner executes one registered algorithm.
type Runner struct {
	// Name is the stable "problem/model" identifier shown by the CLI.
	Name string
	// Weighted marks runners that require Input.WG.
	Weighted bool
	// Run executes the algorithm. Implementations must honor ctx (abort
	// between simulated rounds) and fill every cost field of the Report.
	Run func(ctx context.Context, in Input, opts Options) (*Report, error)
}

// Pair keys the registry.
type Pair struct {
	Problem Problem
	Model   model.Model
}

// String returns "problem/model".
func (p Pair) String() string { return p.Problem.String() + "/" + p.Model.String() }

var runners = map[Pair]*Runner{}

// Register installs a runner for (p, m). It panics on duplicates —
// registration happens in init functions, where a duplicate is a
// programming error.
func Register(p Problem, m model.Model, r Runner) {
	key := Pair{Problem: p, Model: m}
	if _, dup := runners[key]; dup {
		panic(fmt.Sprintf("registry: duplicate runner for %s", key))
	}
	if r.Name == "" {
		r.Name = key.String()
	}
	runners[key] = &r
}

// Lookup returns the runner for (p, m), if one is registered.
func Lookup(p Problem, m model.Model) (*Runner, bool) {
	r, ok := runners[Pair{Problem: p, Model: m}]
	return r, ok
}

// Pairs returns every registered (Problem, Model) pair, sorted by
// problem then model, so enumerations (CLI, benchmarks) are stable.
func Pairs() []Pair {
	out := make([]Pair, 0, len(runners))
	for key := range runners {
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Problem != out[j].Problem {
			return out[i].Problem < out[j].Problem
		}
		return out[i].Model < out[j].Model
	})
	return out
}

// ErrUnknownProblem reports a problem name that names no defined
// problem. Returned (wrapped) by ParseProblem; match with errors.Is.
var ErrUnknownProblem = errors.New("unknown problem")

// ParseProblem resolves a kebab-case problem name against the defined
// problems. The error wraps ErrUnknownProblem and lists the valid
// names.
func ParseProblem(name string) (Problem, error) {
	names := make([]string, 0, numProblems)
	for _, p := range Problems() {
		if p.String() == name {
			return p, nil
		}
		names = append(names, p.String())
	}
	return 0, fmt.Errorf("%w %q (want one of %s)", ErrUnknownProblem, name, strings.Join(names, ", "))
}

// ErrUnsupported reports a (Problem, Model) pair with no registered
// algorithm.
var ErrUnsupported = errors.New("no algorithm registered for this (Problem, Model) pair")

// ErrNeedWeighted reports a weighted problem invoked on an unweighted
// instance.
var ErrNeedWeighted = errors.New("problem requires a weighted graph")

// Solve dispatches one run: it looks up the runner for (p, m), executes
// it under ctx, and stamps the Report with the pair identity and wall
// time. A nil ctx means context.Background().
func Solve(ctx context.Context, in Input, p Problem, m model.Model, opts Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r, ok := Lookup(p, m)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, Pair{Problem: p, Model: m})
	}
	if in.G == nil {
		return nil, errors.New("registry: nil input graph")
	}
	if r.Weighted && in.WG == nil {
		return nil, fmt.Errorf("%w: %s", ErrNeedWeighted, p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := r.Run(ctx, in, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Name, err)
	}
	rep.Problem = p
	rep.Model = m
	rep.Wall = time.Since(start)
	return rep, nil
}

// SolveFunc is the signature of Solve. Consumers that can run against
// either the in-process registry or a remote daemon (the bench harness
// with mpcgraph bench -remote) accept a SolveFunc and default it to
// Solve; determinism makes the two interchangeable — a conforming
// remote implementation must return bit-identical Reports.
type SolveFunc func(ctx context.Context, in Input, p Problem, m model.Model, opts Options) (*Report, error)
