package mpcgraph_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// The parallel execution engine's contract is that Workers only trades
// wall-clock time: for a fixed seed, every Workers setting must produce
// bit-identical results. Running these tests under -race also exercises
// the engine's shard disjointness.

// detGraphs returns named deterministic instances spanning the
// generators (random, heavy-tailed, bipartite, structured).
func detGraphs(seed uint64) map[string]*mpcgraph.Graph {
	src := rng.New(seed)
	return map[string]*mpcgraph.Graph{
		"gnp-sparse":   mpcgraph.RandomGraph(3000, 4.0/3000, seed),
		"gnp-dense":    mpcgraph.RandomGraph(600, 0.2, seed+1),
		"powerlaw":     graph.PreferentialAttachment(2000, 3, src.SplitString("pa")),
		"bipartite":    graph.RandomBipartite(800, 800, 0.01, src.SplitString("bip")).Graph,
		"ring":         graph.Ring(2048),
		"complete-256": graph.Complete(256),
	}
}

// workerSweep is the set of Workers values compared against Workers: 1.
var workerSweep = []int{0, 2, 5}

// assertWorkersInvariant solves g at Workers: 1 and at every workerSweep
// value, and fails unless the payloads and audited costs — everything
// but the host wall time — are identical.
func assertWorkersInvariant(t *testing.T, name string, g *mpcgraph.Graph, p mpcgraph.Problem, opts mpcgraph.Options) {
	t.Helper()
	opts.Workers = 1
	want, err := mpcgraph.Solve(context.Background(), g, p, opts)
	if err != nil {
		t.Fatalf("%s: sequential %s: %v", name, p, err)
	}
	for _, w := range workerSweep {
		opts.Workers = w
		got, err := mpcgraph.Solve(context.Background(), g, p, opts)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		if !reflect.DeepEqual(stripWall(got), stripWall(want)) {
			t.Errorf("%s seed=%d: %s/%s with Workers=%d diverged from Workers=1", name, opts.Seed, p, opts.Model, w)
		}
	}
}

func TestMISDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{3, 2018} {
		for name, g := range detGraphs(seed) {
			assertWorkersInvariant(t, name, g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: seed})
		}
	}
}

func TestCliqueMISDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range detGraphs(7) {
		assertWorkersInvariant(t, name, g, mpcgraph.ProblemMIS,
			mpcgraph.Options{Seed: 7, Model: mpcgraph.ModelCongestedClique})
	}
}

func TestMatchingDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []uint64{11, 99} {
		for name, g := range detGraphs(seed) {
			assertWorkersInvariant(t, name, g, mpcgraph.ProblemApproxMatching, mpcgraph.Options{Seed: seed})
		}
	}
}

func TestVertexCoverDeterministicAcrossWorkers(t *testing.T) {
	for name, g := range detGraphs(23) {
		assertWorkersInvariant(t, name, g, mpcgraph.ProblemVertexCover, mpcgraph.Options{Seed: 23})
	}
}

func TestOnePlusEpsDeterministicAcrossWorkers(t *testing.T) {
	g := mpcgraph.RandomGraph(1500, 8.0/1500, 5)
	assertWorkersInvariant(t, "gnp", g, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.Options{Seed: 5})
}

// TestGraphConstructorsDeterministicAcrossWorkers pins the graph-layer
// parallel count-then-fill paths to their sequential outputs.
func TestGraphConstructorsDeterministicAcrossWorkers(t *testing.T) {
	g := mpcgraph.RandomGraph(4000, 10.0/4000, 77)
	keep := make([]bool, g.NumVertices())
	var vertices []int32
	src := rng.New(8)
	for i := range keep {
		keep[i] = src.Bool(0.6)
		if i%3 != 0 {
			vertices = append(vertices, int32(i))
		}
	}
	subSeq := g.SubgraphWorkers(keep, 1)
	compSeq, origSeq := g.CompactInducedWorkers(vertices, 1)
	lineSeq, _ := g.LineGraphWorkers(1)
	for _, w := range workerSweep {
		if got := g.SubgraphWorkers(keep, w); !graphEqual(got, subSeq) {
			t.Errorf("Subgraph with workers=%d diverged", w)
		}
		gotComp, gotOrig := g.CompactInducedWorkers(vertices, w)
		if !graphEqual(gotComp, compSeq) || !reflect.DeepEqual(gotOrig, origSeq) {
			t.Errorf("CompactInduced with workers=%d diverged", w)
		}
		if gotLine, _ := g.LineGraphWorkers(w); !graphEqual(gotLine, lineSeq) {
			t.Errorf("LineGraph with workers=%d diverged", w)
		}
	}
}

// graphEqual compares two graphs structurally (vertices, edges, and the
// full sorted adjacency of every vertex).
func graphEqual(a, b *mpcgraph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); v < int32(a.NumVertices()); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

func ExampleOptions_workers() {
	g := mpcgraph.RandomGraph(512, 0.05, 1)
	ctx := context.Background()
	seq, _ := mpcgraph.Solve(ctx, g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 9, Workers: 1})
	all, _ := mpcgraph.Solve(ctx, g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 9, Workers: 0})
	// Everything but the host wall time is bit-identical.
	seq.Wall, all.Wall = 0, 0
	fmt.Println(reflect.DeepEqual(seq, all))
	// Output: true
}
