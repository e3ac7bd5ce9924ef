// Package mpcgraph is a reproduction of "Improved Massively Parallel
// Computation Algorithms for MIS, Matching, and Vertex Cover" (Ghaffari,
// Gouleakis, Konrad, Mitrović, Rubinfeld; PODC 2018).
//
// The paper's headline claim is uniform: every problem it treats —
// maximal independent set (Theorem 1.1), (2+ε)-approximate maximum
// matching and minimum vertex cover (Theorem 1.2), (1+ε)-approximate
// matching (Corollary 1.3), and (2+ε)-approximate maximum weighted
// matching (Corollary 1.4) — is solved in O(log log n) rounds under the
// same Õ(n)-memory MPC model, and the techniques carry over to the
// CONGESTED-CLIQUE. The API mirrors that uniformity with a single entry
// point:
//
//	g := mpcgraph.RandomGraph(1<<14, 16.0/(1<<14), 42)
//	rep, err := mpcgraph.Solve(ctx, g, mpcgraph.ProblemApproxMatching,
//		mpcgraph.Options{Seed: 7, Eps: 0.1})
//
// Solve dispatches (Problem, Model) through an internal algorithm
// registry and returns one Report carrying the problem's payload plus
// the complete audited model costs: rounds, outer phases, the maximum
// per-machine (or per-player) load, total communication volume, wall
// time, and a per-stage breakdown — so the paper's round and space
// claims are observable outputs of every run. Options.Model selects the
// simulated model (ModelMPC or ModelCongestedClique); matching-family
// outputs are bit-identical across models, only the audited costs
// change. Runs are cancellable between simulated rounds through the
// context, and Options.Trace streams per-round progress (round index,
// live words, active vertices). Algorithms enumerates the registered
// pairs.
//
// Build graphs with NewGraphBuilder, FromEdgeList or the generator
// helpers; attach weights with NewWeightedGraph for
// ProblemWeightedMatching. All algorithms are deterministic given
// Options.Seed.
//
// Instances also come from the scenario engine: GenerateScenario
// materializes any recipe of the named workload catalog (Scenarios
// enumerates it), and ReadInstanceFile/WriteInstanceFile round-trip
// instances through the portable on-disk formats — edge list, weighted
// edge list, DIMACS, METIS, MatrixMarket, each optionally gzipped (see
// docs/formats.md). Both paths feed Solve interchangeably: generation
// and parsing are deterministic, so the same (scenario, n, seed,
// params) yields bit-identical Reports whether the instance stayed
// in-process or was round-tripped through any format. The cmd/mpcgraph
// CLI (gen, solve, bench, list) is a thin shell over exactly this API.
//
// # Concurrency and determinism
//
// The model is bulk-synchronous: within a round every simulated machine
// computes independently, so the simulators execute each round body in
// parallel across real cores (see internal/par). Options.Workers
// controls the fan-out: 0 uses every core, 1 forces the exact
// sequential path, and any other value caps the goroutine count.
// Results are bit-identical for every Workers setting — parallel index
// ranges are sharded deterministically, integer accounting merges in
// shard order, and every floating-point sum is computed entirely inside
// one vertex's loop body — so Workers trades wall-clock time only,
// never reproducibility. A *Graph is safe for concurrent readers;
// Solve may be called from different goroutines on different graphs.
package mpcgraph

import (
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// Graph is an immutable simple undirected graph. Construct one with
// NewGraphBuilder, FromEdgeList, or the generators in this package.
type Graph = graph.Graph

// Matching is a mate array: Matching[v] is v's partner or -1.
type Matching = graph.Matching

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdgeList builds a graph from explicit undirected edges.
func FromEdgeList(n int, edges [][2]int32) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// RandomGraph samples an Erdős–Rényi G(n, p) graph from the given seed.
func RandomGraph(n int, p float64, seed uint64) *Graph {
	return graph.GNP(n, p, rng.New(seed))
}

// Options configures Solve.
type Options struct {
	// Seed makes every random choice reproducible. Two runs with equal
	// seeds return identical results.
	Seed uint64
	// Eps is the approximation slack ε where applicable (default 0.1).
	Eps float64
	// MemoryFactor sets the per-machine memory to MemoryFactor·n words
	// (default 16), the constant behind the paper's Õ(n).
	MemoryFactor float64
	// Strict makes simulated memory/bandwidth violations return errors
	// instead of being recorded silently.
	Strict bool
	// Workers bounds the goroutines used to execute round bodies and
	// graph constructions: 0 (the default) uses every core, 1 is the
	// exact legacy sequential path, larger values cap the fan-out.
	// Results are bit-identical for every setting; see the package
	// comment.
	Workers int
	// Model selects the simulated computation model: ModelMPC (the zero
	// value) or ModelCongestedClique.
	Model Model
	// Trace, when non-nil, receives one TraceEvent per metered
	// communication step of the run — the observability hook for long
	// simulations. Tracing never changes results, costs or errors.
	Trace TraceFunc
}

// WeightedGraph is a graph with positive edge weights.
type WeightedGraph = graph.Weighted

// NewWeightedGraph attaches weights (in edge-index order) to g.
func NewWeightedGraph(g *Graph, weights []float64) (*WeightedGraph, error) {
	return graph.NewWeighted(g, weights)
}

// RandomWeightedGraph samples G(n, p) with uniform weights in [lo, hi).
func RandomWeightedGraph(n int, p, lo, hi float64, seed uint64) *WeightedGraph {
	src := rng.New(seed)
	return graph.RandomWeights(graph.GNP(n, p, src), lo, hi, src)
}

// IsMaximalIndependentSet validates an MIS result against g.
func IsMaximalIndependentSet(g *Graph, set []bool) bool {
	return graph.IsMaximalIndependentSet(g, set)
}

// IsMatching validates a matching against g.
func IsMatching(g *Graph, m Matching) bool { return graph.IsMatching(g, m) }

// IsMaximalMatching validates that m is a matching of g and no edge of g
// has both endpoints free.
func IsMaximalMatching(g *Graph, m Matching) bool { return graph.IsMaximalMatching(g, m) }

// IsVertexCover validates a vertex cover against g.
func IsVertexCover(g *Graph, cover []bool) bool { return graph.IsVertexCover(g, cover) }
