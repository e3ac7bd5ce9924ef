package mpcgraph_test

// Runnable godoc examples for the public API. The Output comments are
// asserted by `go test`, so these double as end-to-end regression tests
// with fixed seeds. The ExampleSolve_* family demonstrates the unified
// Solve entry point for every Problem.

import (
	"context"
	"fmt"

	"mpcgraph"
)

// ExampleSolve runs the Theorem 1.1 MIS algorithm through the unified
// entry point and reads the audited costs off the Report.
func ExampleSolve() {
	g := mpcgraph.RandomGraph(1000, 0.01, 42)
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMIS, mpcgraph.Options{Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", mpcgraph.IsMaximalIndependentSet(g, rep.InMIS))
	fmt.Println("rounds are doubly logarithmic:", rep.Rounds < 20)
	fmt.Println("costs audited:", rep.MaxMachineWords > 0 && rep.TotalWords > 0)
	// Output:
	// valid: true
	// rounds are doubly logarithmic: true
	// costs audited: true
}

// ExampleSolve_maximalMatching computes an exact maximal matching with
// the [LMSV11] filtering subroutine (Section 4.4.5).
func ExampleSolve_maximalMatching() {
	g := mpcgraph.RandomGraph(1000, 0.01, 42)
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMaximalMatching, mpcgraph.Options{Seed: 7})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("maximal:", mpcgraph.IsMaximalMatching(g, rep.M))
	// Output:
	// maximal: true
}

// ExampleSolve_approxMatching computes the Theorem 1.2 (2+ε)-approximate
// maximum matching.
func ExampleSolve_approxMatching() {
	g := mpcgraph.RandomGraph(1000, 0.01, 42)
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemApproxMatching, mpcgraph.Options{Seed: 7, Eps: 0.1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", mpcgraph.IsMatching(g, rep.M))
	fmt.Println("non-trivial:", rep.M.Size() > 300)
	// Output:
	// valid: true
	// non-trivial: true
}

// ExampleSolve_onePlusEpsMatching boosts the (2+ε) matching to (1+ε)
// via short augmenting paths (Corollary 1.3).
func ExampleSolve_onePlusEpsMatching() {
	g := mpcgraph.RandomGraph(1000, 0.01, 42)
	base, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemApproxMatching, mpcgraph.Options{Seed: 7, Eps: 0.2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.Options{Seed: 7, Eps: 0.2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", mpcgraph.IsMatching(g, rep.M))
	fmt.Println("no smaller than the base matching:", rep.M.Size() >= base.M.Size())
	// Output:
	// valid: true
	// no smaller than the base matching: true
}

// ExampleSolve_vertexCover computes the Theorem 1.2 (2+ε)-approximate
// minimum vertex cover, certified by the dual fractional matching.
func ExampleSolve_vertexCover() {
	g := mpcgraph.RandomGraph(1000, 0.01, 42)
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemVertexCover, mpcgraph.Options{Seed: 7, Eps: 0.1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	covered := 0
	for _, in := range rep.InCover {
		if in {
			covered++
		}
	}
	fmt.Println("valid:", mpcgraph.IsVertexCover(g, rep.InCover))
	fmt.Println("certified ratio below 2.2:", float64(covered) <= 2.2*rep.FractionalWeight)
	// Output:
	// valid: true
	// certified ratio below 2.2: true
}

// ExampleSolve_weightedMatching computes the Corollary 1.4
// (2+ε)-approximate maximum weight matching; the weighted instance is
// passed directly to Solve.
func ExampleSolve_weightedMatching() {
	b := mpcgraph.NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	wg, err := mpcgraph.NewWeightedGraph(g, []float64{1.0, 10.0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rep, err := mpcgraph.Solve(context.Background(), wg, mpcgraph.ProblemWeightedMatching, mpcgraph.Options{Seed: 1, Eps: 0.1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("value:", rep.Value)
	// Output:
	// value: 10
}

// ExampleSolve_congestedClique runs the same MIS under the
// CONGESTED-CLIQUE model by flipping Options.Model.
func ExampleSolve_congestedClique() {
	g := mpcgraph.RandomGraph(600, 0.02, 42)
	rep, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMIS,
		mpcgraph.Options{Seed: 7, Model: mpcgraph.ModelCongestedClique})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", mpcgraph.IsMaximalIndependentSet(g, rep.InMIS))
	fmt.Println("per-player load within the Lenzen limit:", rep.MaxMachineWords <= int64(g.NumVertices()))
	// Output:
	// valid: true
	// per-player load within the Lenzen limit: true
}

func ExampleNewGraphBuilder() {
	b := mpcgraph.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	fmt.Println(g.NumVertices(), "vertices,", g.NumEdges(), "edges")
	// Output:
	// 4 vertices, 3 edges
}
