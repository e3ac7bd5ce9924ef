package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"mpcgraph/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := Empty(0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Errorf("empty graph: %v", g)
	}
	if g.AvgDegree() != 0 {
		t.Errorf("empty graph AvgDegree = %v", g.AvgDegree())
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Error("expected edges missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 3) {
		t.Error("unexpected edges present")
	}
}

func TestBuilderPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(1,1) did not panic")
		}
	}()
	NewBuilder(3).AddEdge(1, 1)
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(3).AddEdge(0, 3)
}

func TestFromEdgesRejectsInvalid(t *testing.T) {
	if _, err := FromEdges(3, [][2]int32{{0, 3}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromEdges(3, [][2]int32{{1, 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	g, err := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil || g.NumEdges() != 2 {
		t.Errorf("valid edges rejected: %v %v", g, err)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := GNP(200, 0.1, rng.New(1))
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("neighbors of %d not strictly sorted: %v", v, nb)
			}
		}
	}
}

func TestDegreeSum(t *testing.T) {
	g := GNP(300, 0.05, rng.New(2))
	sum := 0
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2m %d", sum, 2*g.NumEdges())
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	g := GNP(150, 0.08, rng.New(3))
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.HasEdge(v, u) {
				t.Fatalf("edge {%d,%d} not symmetric", u, v)
			}
		}
	}
}

func TestCompleteGraph(t *testing.T) {
	g := Complete(10)
	if g.NumEdges() != 45 || g.MaxDegree() != 9 {
		t.Errorf("K10: m=%d maxdeg=%d", g.NumEdges(), g.MaxDegree())
	}
}

func TestStructuredGenerators(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		wantN      int
		wantM      int
		wantMaxDeg int
	}{
		{"ring5", Ring(5), 5, 5, 2},
		{"ring2", Ring(2), 2, 1, 1},
		{"path4", Path(4), 4, 3, 2},
		{"path1", Path(1), 1, 0, 0},
		{"star6", Star(6), 6, 5, 5},
		{"grid3x4", Grid(3, 4), 12, 17, 4},
		{"empty7", Empty(7), 7, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.NumVertices() != tt.wantN {
				t.Errorf("n = %d, want %d", tt.g.NumVertices(), tt.wantN)
			}
			if tt.g.NumEdges() != tt.wantM {
				t.Errorf("m = %d, want %d", tt.g.NumEdges(), tt.wantM)
			}
			if tt.g.MaxDegree() != tt.wantMaxDeg {
				t.Errorf("maxdeg = %d, want %d", tt.g.MaxDegree(), tt.wantMaxDeg)
			}
		})
	}
}

func TestGNPEdgeCount(t *testing.T) {
	const n = 2000
	const p = 0.01
	g := GNP(n, p, rng.New(4))
	want := p * n * (n - 1) / 2
	got := float64(g.NumEdges())
	if got < 0.85*want || got > 1.15*want {
		t.Errorf("G(%d,%v) has %v edges, want about %v", n, p, got, want)
	}
}

func TestGNPDeterminism(t *testing.T) {
	a := GNP(500, 0.02, rng.New(7))
	b := GNP(500, 0.02, rng.New(7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	ae, be := a.EdgeList(), b.EdgeList()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(100, 0, rng.New(1)); g.NumEdges() != 0 {
		t.Errorf("GNP(p=0) has %d edges", g.NumEdges())
	}
	if g := GNP(20, 1, rng.New(1)); g.NumEdges() != 190 {
		t.Errorf("GNP(p=1) has %d edges, want 190", g.NumEdges())
	}
	if g := GNP(1, 0.5, rng.New(1)); g.NumEdges() != 0 || g.NumVertices() != 1 {
		t.Errorf("GNP(n=1) wrong: %v", g)
	}
}

func TestGNM(t *testing.T) {
	g := GNM(100, 250, rng.New(5))
	if g.NumEdges() != 250 {
		t.Errorf("GNM edge count = %d, want 250", g.NumEdges())
	}
}

func TestRandomBipartite(t *testing.T) {
	bg := RandomBipartite(50, 70, 0.1, rng.New(6))
	if bg.NumVertices() != 120 {
		t.Fatalf("n = %d, want 120", bg.NumVertices())
	}
	bg.ForEachEdge(func(u, v int32) {
		if bg.Left[u] == bg.Left[v] {
			t.Fatalf("edge {%d,%d} within one side", u, v)
		}
	})
	want := 0.1 * 50 * 70
	if got := float64(bg.NumEdges()); got < 0.6*want || got > 1.4*want {
		t.Errorf("bipartite edge count %v, want about %v", got, want)
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(100, 6, rng.New(8))
	exact := 0
	for v := int32(0); v < 100; v++ {
		if g.Degree(v) > 6 {
			t.Fatalf("degree of %d is %d > 6", v, g.Degree(v))
		}
		if g.Degree(v) == 6 {
			exact++
		}
	}
	if exact < 90 {
		t.Errorf("only %d/100 vertices reached degree 6", exact)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(500, 3, rng.New(9))
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Every vertex past the seed prefix attaches k edges, so m is close
	// to n*k (deduplication can only lose a few).
	if g.NumEdges() < 400*3/2 {
		t.Errorf("unexpectedly few edges: %d", g.NumEdges())
	}
	// Power-law graphs must have a hub noticeably above average degree.
	if g.MaxDegree() < 3*int(g.AvgDegree()) {
		t.Errorf("max degree %d not heavy-tailed (avg %.1f)", g.MaxDegree(), g.AvgDegree())
	}
}

func TestPlantedMatching(t *testing.T) {
	g, planted := PlantedMatching(100, 0.01, rng.New(10))
	if len(planted) != 50 {
		t.Fatalf("planted size = %d", len(planted))
	}
	for _, e := range planted {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("planted edge %v missing", e)
		}
	}
}

func TestSubgraphMask(t *testing.T) {
	g := Complete(6)
	keep := []bool{true, true, true, false, false, false}
	sub := g.Subgraph(keep)
	if sub.NumVertices() != 6 {
		t.Fatalf("Subgraph changed vertex count: %d", sub.NumVertices())
	}
	if sub.NumEdges() != 3 {
		t.Errorf("Subgraph edges = %d, want 3 (triangle)", sub.NumEdges())
	}
	for v := int32(3); v < 6; v++ {
		if sub.Degree(v) != 0 {
			t.Errorf("removed vertex %d has degree %d", v, sub.Degree(v))
		}
	}
}

func TestCompactInduced(t *testing.T) {
	g := Ring(6)
	sub, orig := g.CompactInduced([]int32{1, 2, 3})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced ring segment: n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	if orig[0] != 1 || orig[1] != 2 || orig[2] != 3 {
		t.Errorf("orig mapping = %v", orig)
	}
}

func TestCompactInducedPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate vertex did not panic")
		}
	}()
	Ring(5).CompactInduced([]int32{1, 1})
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	g := GNP(120, 0.07, rng.New(11))
	ix := NewEdgeIndex(g)
	if ix.NumEdges() != g.NumEdges() {
		t.Fatalf("index has %d edges, graph has %d", ix.NumEdges(), g.NumEdges())
	}
	seen := make(map[int32]bool)
	g.ForEachEdge(func(u, v int32) {
		id := ix.ID(u, v)
		if id2 := ix.ID(v, u); id2 != id {
			t.Fatalf("ID not symmetric for {%d,%d}: %d vs %d", u, v, id, id2)
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		uu, vv := ix.Endpoints(id)
		if uu != u || vv != v {
			t.Fatalf("Endpoints(%d) = (%d,%d), want (%d,%d)", id, uu, vv, u, v)
		}
	})
}

func TestEdgeIndexPanicsOnMissingEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ID of absent edge did not panic")
		}
	}()
	NewEdgeIndex(Path(4)).ID(0, 3)
}

func TestLineGraph(t *testing.T) {
	// L(P4) = P3; L(K3) = K3; L(star K_{1,3}) = K3.
	lp, _ := Path(4).LineGraph()
	if lp.NumVertices() != 3 || lp.NumEdges() != 2 {
		t.Errorf("L(P4): n=%d m=%d, want 3, 2", lp.NumVertices(), lp.NumEdges())
	}
	lk, _ := Complete(3).LineGraph()
	if lk.NumVertices() != 3 || lk.NumEdges() != 3 {
		t.Errorf("L(K3): n=%d m=%d, want 3, 3", lk.NumVertices(), lk.NumEdges())
	}
	ls, _ := Star(4).LineGraph()
	if ls.NumVertices() != 3 || ls.NumEdges() != 3 {
		t.Errorf("L(K_{1,3}): n=%d m=%d, want 3, 3", ls.NumVertices(), ls.NumEdges())
	}
}

func TestClone(t *testing.T) {
	g := GNP(50, 0.2, rng.New(12))
	c := g.Clone()
	if c.NumEdges() != g.NumEdges() || c.NumVertices() != g.NumVertices() {
		t.Fatal("clone differs")
	}
	// Mutating the clone's internals must not affect the original.
	if len(c.adj) > 0 {
		old := g.adj[0]
		c.adj[0] = old + 1
		if g.adj[0] != old {
			t.Fatal("clone aliases original storage")
		}
	}
}

func TestValidatorsOnKnownSets(t *testing.T) {
	g := Ring(5)
	indep := []bool{true, false, true, false, false}
	if !IsIndependentSet(g, indep) {
		t.Error("{0,2} should be independent in C5")
	}
	adjacent := []bool{true, true, false, false, false}
	if IsIndependentSet(g, adjacent) {
		t.Error("{0,1} should not be independent in C5")
	}
}

func TestIsMaximalIndependentSetOnC5(t *testing.T) {
	g := Ring(5)
	// {0, 2} leaves vertex 4 undominated? 4's neighbors are 3 and 0; 0 is
	// in the set, so 4 is dominated. 3's neighbors are 2 and 4; 2 is in.
	// 1's neighbors are 0 and 2. So {0,2} IS maximal.
	if !IsMaximalIndependentSet(g, []bool{true, false, true, false, false}) {
		t.Error("{0,2} should be maximal in C5")
	}
	// {0} alone is not maximal: vertices 2 and 3 are undominated.
	if IsMaximalIndependentSet(g, []bool{true, false, false, false, false}) {
		t.Error("{0} should not be maximal in C5")
	}
}

func TestMatchingOperations(t *testing.T) {
	m := NewMatching(6)
	if m.Size() != 0 {
		t.Fatal("new matching not empty")
	}
	m.Match(0, 1)
	m.Match(2, 5)
	if m.Size() != 2 {
		t.Errorf("size = %d, want 2", m.Size())
	}
	edges := m.Edges()
	if len(edges) != 2 || edges[0] != [2]int32{0, 1} || edges[1] != [2]int32{2, 5} {
		t.Errorf("edges = %v", edges)
	}
	m.Unmatch(5)
	if m.Size() != 1 || m[2] != -1 {
		t.Error("Unmatch did not clear both endpoints")
	}
	c := m.Clone()
	c.Unmatch(0)
	if m.Size() != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMatchPanicsOnConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double match did not panic")
		}
	}()
	m := NewMatching(3)
	m.Match(0, 1)
	m.Match(1, 2)
}

func TestIsMatchingValidation(t *testing.T) {
	g := Path(4) // edges 0-1, 1-2, 2-3
	m := NewMatching(4)
	m.Match(0, 1)
	if !IsMatching(g, m) {
		t.Error("valid matching rejected")
	}
	if IsMaximalMatching(g, m) {
		t.Error("{0-1} is not maximal in P4 (2-3 free)")
	}
	m.Match(2, 3)
	if !IsMaximalMatching(g, m) {
		t.Error("{0-1, 2-3} should be maximal in P4")
	}
	// Non-edge in the matching must be rejected.
	bad := NewMatching(4)
	bad[0], bad[3] = 3, 0
	if IsMatching(g, bad) {
		t.Error("matching with non-edge accepted")
	}
	// Inconsistent mate array must be rejected.
	incons := NewMatching(4)
	incons[0] = 1
	if IsMatching(g, incons) {
		t.Error("inconsistent mate array accepted")
	}
}

func TestIsVertexCover(t *testing.T) {
	g := Path(4)
	if !IsVertexCover(g, []bool{false, true, true, false}) {
		t.Error("{1,2} should cover P4")
	}
	if !IsVertexCover(g, []bool{true, false, true, false}) {
		t.Error("{0,2} should cover P4: 0 covers 0-1, 2 covers 1-2 and 2-3")
	}
}

func TestIsVertexCoverNegative(t *testing.T) {
	g := Path(4)
	// {0, 3} misses edge 1-2.
	if IsVertexCover(g, []bool{true, false, false, true}) {
		t.Error("{0,3} should not cover P4")
	}
}

func TestCountMarked(t *testing.T) {
	if CountMarked([]bool{true, false, true, true}) != 3 {
		t.Error("CountMarked wrong")
	}
}

func TestFractionalMatchingHelpers(t *testing.T) {
	g := Path(3) // edges {0,1}, {1,2}
	ix := NewEdgeIndex(g)
	f := NewFractionalMatching(ix)
	f.X[ix.ID(0, 1)] = 0.5
	f.X[ix.ID(1, 2)] = 0.25
	y := f.VertexWeights()
	if y[0] != 0.5 || y[1] != 0.75 || y[2] != 0.25 {
		t.Errorf("vertex weights = %v", y)
	}
	if w := f.Weight(); w != 0.75 {
		t.Errorf("weight = %v", w)
	}
	if !f.IsFeasible(0) {
		t.Error("feasible matching rejected")
	}
	f.X[ix.ID(1, 2)] = 0.6
	if f.IsFeasible(0) {
		t.Error("y_1 = 1.1 should be infeasible")
	}
}

func TestSubgraphPropertyRandom(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		g := GNP(60, 0.1, src)
		keep := make([]bool, 60)
		for i := range keep {
			keep[i] = src.Bool(0.5)
		}
		sub := g.Subgraph(keep)
		ok := true
		sub.ForEachEdge(func(u, v int32) {
			if !keep[u] || !keep[v] || !g.HasEdge(u, v) {
				ok = false
			}
		})
		// Count edges that should be kept.
		want := 0
		g.ForEachEdge(func(u, v int32) {
			if keep[u] && keep[v] {
				want++
			}
		})
		return ok && sub.NumEdges() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSubgraphOfSubgraph: cutting a shrinking mask from the previous cut
// gives the same CSR as cutting it from the whole graph, which lets the
// integral matching pipeline cut each residue from the last one.
func TestSubgraphOfSubgraph(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		g := GNP(80, 0.1, src)
		keep := make([]bool, 80)
		for i := range keep {
			keep[i] = true
		}
		sub := g
		for step := 0; step < 4; step++ {
			for i := range keep {
				keep[i] = keep[i] && src.Bool(0.8)
			}
			sub = sub.SubgraphWorkers(keep, 1+step%2)
			want := g.Subgraph(keep)
			if sub.m != want.m || !slices.Equal(sub.offsets, want.offsets) || !slices.Equal(sub.adj, want.adj) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestWeightedGraph(t *testing.T) {
	g := Path(3)
	wg, err := NewWeighted(g, []float64{2.0, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if wg.EdgeWeight(0, 1)+wg.EdgeWeight(1, 2) != 5.0 {
		t.Error("edge weights wrong")
	}
	m := NewMatching(3)
	m.Match(1, 2)
	if wg.MatchingWeight(m) != 3.0 {
		t.Errorf("matching weight = %v", wg.MatchingWeight(m))
	}
	if wg.MaxWeight() != 3.0 {
		t.Errorf("max weight = %v", wg.MaxWeight())
	}
}

func TestNewWeightedRejectsBadInput(t *testing.T) {
	g := Path(3)
	if _, err := NewWeighted(g, []float64{1}); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := NewWeighted(g, []float64{1, -2}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestRandomWeights(t *testing.T) {
	wg := RandomWeights(GNP(40, 0.2, rng.New(14)), 1, 10, rng.New(15))
	for _, w := range wg.W {
		if w < 1 || w >= 10 {
			t.Fatalf("weight %v out of [1,10)", w)
		}
	}
}

func BenchmarkGNP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GNP(10000, 0.001, rng.New(uint64(i)))
	}
}
