package mpcgraph

import (
	"context"
	"fmt"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/model"
	"mpcgraph/internal/registry"
)

// Problem identifies one of the graph problems the library solves. The
// set mirrors the paper's results: Theorem 1.1 (MIS), Theorem 1.2
// (approximate matching and vertex cover), Corollary 1.3 ((1+ε)
// matching), Corollary 1.4 (weighted matching), plus the [LMSV11]
// maximal-matching subroutine as an explicit problem so the O(log n)
// baseline regime is callable through the same API.
type Problem = registry.Problem

// The problems accepted by Solve.
const (
	// ProblemMIS: maximal independent set in O(log log Δ) rounds
	// (Theorem 1.1). Report payload: InMIS.
	ProblemMIS Problem = registry.MIS
	// ProblemMaximalMatching: exact maximal matching via [LMSV11]
	// filtering (Section 4.4.5; Θ(log n) rounds at S = Θ(n)). Report
	// payload: M.
	ProblemMaximalMatching Problem = registry.MaximalMatching
	// ProblemApproxMatching: (2+ε)-approximate maximum matching
	// (Theorem 1.2). Report payload: M.
	ProblemApproxMatching Problem = registry.ApproxMatching
	// ProblemOnePlusEpsMatching: (1+ε)-approximate maximum matching
	// (Corollary 1.3). Report payload: M.
	ProblemOnePlusEpsMatching Problem = registry.OnePlusEpsMatching
	// ProblemVertexCover: (2+ε)-approximate minimum vertex cover
	// (Theorem 1.2). Report payload: InCover, FractionalWeight.
	ProblemVertexCover Problem = registry.VertexCover
	// ProblemWeightedMatching: (2+ε)-approximate maximum weight matching
	// (Corollary 1.4). Requires a *WeightedGraph input. Report payload:
	// M, Value.
	ProblemWeightedMatching Problem = registry.WeightedMatching
)

// Model selects the simulated computation model.
type Model = model.Model

// The models accepted by Solve.
const (
	// ModelMPC is the Õ(n)-memory Massively Parallel Computation model
	// [KSV10] — the default.
	ModelMPC Model = model.MPC
	// ModelCongestedClique is the CONGESTED-CLIQUE model [LPPSP03] with
	// Lenzen routing as an O(1)-round primitive. Algorithm outputs are
	// bit-identical to the MPC model; only the audited costs change.
	ModelCongestedClique Model = model.CongestedClique
)

// Algorithm identifies one registered (Problem, Model) pair.
type Algorithm = registry.Pair

// Errors returned by Solve for dispatch failures. Use errors.Is.
var (
	// ErrUnsupported: no algorithm is registered for the requested
	// (Problem, Model) pair (e.g. ProblemWeightedMatching under
	// ModelCongestedClique — Corollary 1.4 is stated for MPC).
	ErrUnsupported = registry.ErrUnsupported
	// ErrNeedWeightedGraph: a weighted problem was invoked on an
	// unweighted instance.
	ErrNeedWeightedGraph = registry.ErrNeedWeighted
	// ErrUnknownProblem: a problem name resolved against the registry
	// (e.g. by the mpcgraph CLI) names no defined problem.
	ErrUnknownProblem = registry.ErrUnknownProblem
	// ErrUnknownModel: a model name names no defined model.
	ErrUnknownModel = model.ErrUnknownModel
)

// Instance is the input of Solve: a *Graph or a *WeightedGraph.
type Instance interface {
	NumVertices() int
	NumEdges() int
}

// Algorithms enumerates every registered (Problem, Model) pair in
// stable order — the same table `mpcgraph list` and the experiment
// harness iterate, so new registrations appear everywhere at once.
func Algorithms() []Algorithm { return registry.Pairs() }

// Solve runs the algorithm registered for (p, opts.Model) on the given
// instance and returns one uniform Report. It is the single entry point
// behind every problem and both models:
//
//	rep, err := mpcgraph.Solve(ctx, g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 7})
//
// The run is deterministic in opts.Seed for every Workers setting, and
// matching-family outputs are bit-identical across models. A cancelled
// ctx aborts the run between simulated rounds with ctx.Err(); a nil ctx
// means context.Background(). Pass a *WeightedGraph for
// ProblemWeightedMatching (a plain *Graph yields ErrNeedWeightedGraph);
// unweighted problems accept either input and ignore the weights.
func Solve(ctx context.Context, in Instance, p Problem, opts Options) (*Report, error) {
	input, err := toInput(in)
	if err != nil {
		return nil, err
	}
	rep, err := registry.Solve(ctx, input, p, opts.Model, registry.Options{
		Seed:         opts.Seed,
		Eps:          opts.Eps,
		MemoryFactor: opts.MemoryFactor,
		Strict:       opts.Strict,
		Workers:      opts.Workers,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("mpcgraph: Solve: %w", err)
	}
	return rep, nil
}

// toInput maps the public instance types onto the registry input.
func toInput(in Instance) (registry.Input, error) {
	switch g := in.(type) {
	case *graph.Weighted:
		if g == nil {
			return registry.Input{}, fmt.Errorf("mpcgraph: Solve on nil instance")
		}
		return registry.Input{G: g.Graph, WG: g}, nil
	case *graph.Graph:
		if g == nil {
			return registry.Input{}, fmt.Errorf("mpcgraph: Solve on nil instance")
		}
		return registry.Input{G: g}, nil
	case nil:
		return registry.Input{}, fmt.Errorf("mpcgraph: Solve on nil instance")
	default:
		return registry.Input{}, fmt.Errorf("mpcgraph: Solve on unsupported instance type %T (want *Graph or *WeightedGraph)", in)
	}
}
