package mpcgraph

import (
	"context"
	"testing"
	"testing/quick"
)

// mustSolve runs Solve and fails the test on error.
func mustSolve(t *testing.T, in Instance, p Problem, opts Options) *Report {
	t.Helper()
	rep, err := Solve(context.Background(), in, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFacadeMIS(t *testing.T) {
	g := RandomGraph(500, 0.02, 1)
	rep := mustSolve(t, g, ProblemMIS, Options{Seed: 2})
	if !IsMaximalIndependentSet(g, rep.InMIS) {
		t.Error("facade MIS invalid")
	}
	if rep.Rounds == 0 {
		t.Error("no rounds recorded")
	}
}

func TestFacadeMISCongestedClique(t *testing.T) {
	g := RandomGraph(400, 0.03, 3)
	rep := mustSolve(t, g, ProblemMIS, Options{Seed: 4, Model: ModelCongestedClique})
	if !IsMaximalIndependentSet(g, rep.InMIS) {
		t.Error("facade clique MIS invalid")
	}
}

func TestFacadeMatching(t *testing.T) {
	g := RandomGraph(400, 0.02, 5)
	rep := mustSolve(t, g, ProblemApproxMatching, Options{Seed: 6, Eps: 0.1})
	if !IsMatching(g, rep.M) {
		t.Error("facade matching invalid")
	}
}

func TestFacadeOnePlusEps(t *testing.T) {
	g := RandomGraph(300, 0.03, 7)
	rep := mustSolve(t, g, ProblemOnePlusEpsMatching, Options{Seed: 8, Eps: 0.2})
	if !IsMatching(g, rep.M) {
		t.Error("facade 1+eps matching invalid")
	}
}

func TestFacadeVertexCover(t *testing.T) {
	g := RandomGraph(400, 0.02, 9)
	rep := mustSolve(t, g, ProblemVertexCover, Options{Seed: 10, Eps: 0.1})
	if !IsVertexCover(g, rep.InCover) {
		t.Error("facade cover invalid")
	}
	covered := 0
	for _, c := range rep.InCover {
		if c {
			covered++
		}
	}
	if rep.FractionalWeight > float64(covered)+1e-9 {
		t.Error("dual weight exceeds cover size")
	}
}

func TestFacadeWeightedMatching(t *testing.T) {
	wg := RandomWeightedGraph(200, 0.05, 1, 10, 11)
	rep := mustSolve(t, wg, ProblemWeightedMatching, Options{Seed: 12, Eps: 0.1})
	if !IsMatching(wg.Graph, rep.M) {
		t.Error("facade weighted matching invalid")
	}
	if rep.Value <= 0 && wg.NumEdges() > 0 {
		t.Error("weighted matching has zero value on a non-empty graph")
	}
}

func TestFacadeBuilderAndEdgeList(t *testing.T) {
	b := NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Fatal("builder lost edges")
	}
	g2, err := FromEdgeList(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil || g2.NumEdges() != 2 {
		t.Fatalf("FromEdgeList failed: %v", err)
	}
	if _, err := FromEdgeList(2, [][2]int32{{0, 5}}); err == nil {
		t.Error("invalid edge accepted")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	g := RandomGraph(300, 0.03, 13)
	a := mustSolve(t, g, ProblemApproxMatching, Options{Seed: 14})
	b := mustSolve(t, g, ProblemApproxMatching, Options{Seed: 14})
	if a.M.Size() != b.M.Size() {
		t.Error("same seed produced different matchings")
	}
	for v := range a.M {
		if a.M[v] != b.M[v] {
			t.Fatal("matchings differ elementwise")
		}
	}
}

func TestFacadeStrictErrorsPropagate(t *testing.T) {
	// A dense graph with starved machines must surface the capacity
	// error from every problem that meters memory.
	g := RandomGraph(500, 0.2, 15)
	opts := Options{Seed: 16, Strict: true, MemoryFactor: 0.02}
	for _, p := range []Problem{ProblemMIS, ProblemVertexCover, ProblemApproxMatching, ProblemOnePlusEpsMatching} {
		if _, err := Solve(context.Background(), g, p, opts); err == nil {
			t.Errorf("%s did not propagate the capacity error", p)
		}
	}
}

func TestFacadeCliqueStats(t *testing.T) {
	g := RandomGraph(600, 0.02, 17)
	rep := mustSolve(t, g, ProblemMIS, Options{Seed: 18, Strict: true, Model: ModelCongestedClique})
	if rep.Rounds == 0 || rep.TotalWords == 0 {
		t.Errorf("costs not populated: rounds %d, total words %d", rep.Rounds, rep.TotalWords)
	}
	if rep.MaxMachineWords > int64(g.NumVertices()) {
		t.Errorf("per-player load %d exceeds the clique's n-word Lenzen limit", rep.MaxMachineWords)
	}
}

func TestFacadeWeightedGraphErrors(t *testing.T) {
	g := RandomGraph(10, 0.5, 19)
	if _, err := NewWeightedGraph(g, []float64{1}); err == nil {
		t.Error("mismatched weight count accepted")
	}
	wg := RandomWeightedGraph(50, 0.2, 2, 9, 20)
	for _, w := range wg.W {
		if w < 2 || w >= 9 {
			t.Fatalf("weight %v outside [2,9)", w)
		}
	}
}

func TestFacadePropertyAllOutputsValid(t *testing.T) {
	check := func(seed uint64) bool {
		g := RandomGraph(120, 0.05, seed)
		solve := func(p Problem) *Report {
			rep, err := Solve(context.Background(), g, p, Options{Seed: seed})
			if err != nil {
				return nil
			}
			return rep
		}
		mis := solve(ProblemMIS)
		m := solve(ProblemApproxMatching)
		cover := solve(ProblemVertexCover)
		return mis != nil && IsMaximalIndependentSet(g, mis.InMIS) &&
			m != nil && IsMatching(g, m.M) &&
			cover != nil && IsVertexCover(g, cover.InCover)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
