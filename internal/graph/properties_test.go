package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"mpcgraph/internal/rng"
)

// TestLineGraphEdgeCountIdentity: |E(L(G))| = Σ_v C(deg(v), 2).
func TestLineGraphEdgeCountIdentity(t *testing.T) {
	check := func(seed uint64) bool {
		g := GNP(40, 0.15, rng.New(seed))
		lg, _ := g.LineGraph()
		want := 0
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			d := g.Degree(v)
			want += d * (d - 1) / 2
		}
		return lg.NumVertices() == g.NumEdges() && lg.NumEdges() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLineGraphMatchingCorrespondence: an independent set of L(G) maps
// to a matching of G — the classical reduction the paper's introduction
// cites (Luby on L(G) gives maximal matching).
func TestLineGraphMatchingCorrespondence(t *testing.T) {
	src := rng.New(3)
	g := GNP(60, 0.08, src)
	lg, ix := g.LineGraph()
	// Greedy MIS on the line graph.
	inMIS := make([]bool, lg.NumVertices())
	blocked := make([]bool, lg.NumVertices())
	for _, v := range src.Perm(lg.NumVertices()) {
		if blocked[v] {
			continue
		}
		inMIS[v] = true
		for _, u := range lg.Neighbors(v) {
			blocked[u] = true
		}
	}
	if !IsMaximalIndependentSet(lg, inMIS) {
		t.Fatal("line-graph MIS invalid")
	}
	// Translate to a matching of G.
	m := NewMatching(g.NumVertices())
	for id, in := range inMIS {
		if !in {
			continue
		}
		u, v := ix.Endpoints(int32(id))
		m.Match(u, v)
	}
	if !IsMaximalMatching(g, m) {
		t.Error("line-graph MIS did not induce a maximal matching")
	}
}

// TestCompactInducedPreservesAdjacency on random vertex subsets.
func TestCompactInducedPreservesAdjacency(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		g := GNP(50, 0.1, src)
		var vertices []int32
		for v := int32(0); v < 50; v++ {
			if src.Bool(0.4) {
				vertices = append(vertices, v)
			}
		}
		sub, orig := g.CompactInduced(vertices)
		// Every subgraph edge exists in g under the mapping; counts match.
		ok := true
		sub.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(orig[u], orig[v]) {
				ok = false
			}
		})
		want := 0
		inSet := make(map[int32]bool, len(vertices))
		for _, v := range vertices {
			inSet[v] = true
		}
		g.ForEachEdge(func(u, v int32) {
			if inSet[u] && inSet[v] {
				want++
			}
		})
		return ok && sub.NumEdges() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEdgeIndexDensity: ids are exactly 0..m-1 with no gaps, in
// lexicographic order of (u, v).
func TestEdgeIndexDensity(t *testing.T) {
	g := GNP(70, 0.1, rng.New(9))
	ix := NewEdgeIndex(g)
	next := int32(0)
	g.ForEachEdge(func(u, v int32) {
		if id := ix.ID(u, v); id != next {
			t.Fatalf("edge {%d,%d} has id %d, want %d", u, v, id, next)
		}
		next++
	})
	if int(next) != g.NumEdges() {
		t.Errorf("indexed %d edges, graph has %d", next, g.NumEdges())
	}
}

// TestGeneratorsProduceSimpleGraphs: no generator may emit self-loops or
// parallel edges (the builder enforces it; this guards the generators'
// own logic against index bugs).
func TestGeneratorsProduceSimpleGraphs(t *testing.T) {
	src := rng.New(11)
	gs := map[string]*Graph{
		"gnp":      GNP(80, 0.1, src),
		"gnm":      GNM(80, 200, src),
		"regular":  RandomRegular(80, 4, src),
		"powerlaw": PreferentialAttachment(80, 3, src),
		"bip":      RandomBipartite(40, 40, 0.1, src).Graph,
	}
	for name, g := range gs {
		t.Run(name, func(t *testing.T) {
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				nb := g.Neighbors(v)
				for i, u := range nb {
					if u == v {
						t.Fatalf("self-loop at %d", v)
					}
					if i > 0 && nb[i-1] == u {
						t.Fatalf("parallel edge {%d,%d}", v, u)
					}
				}
			}
		})
	}
}

// TestMatchingEdgesSorted: Edges() returns edges in vertex order with
// u < v, the contract downstream consumers (pipeline union) rely on.
func TestMatchingEdgesSorted(t *testing.T) {
	m := NewMatching(8)
	m.Match(5, 2)
	m.Match(0, 7)
	edges := m.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized", e)
		}
	}
	if edges[0][0] > edges[1][0] {
		t.Errorf("edges out of order: %v", edges)
	}
}

// TestOnePassPredicatesMatchDefinitions: IsMaximalIndependentSet and
// IsMaximalMatching, which each make one adjacency pass, agree with
// their two-pass definitions (independent or a matching first, then
// dominating or maximal) on random graphs; IsIndependentSet and
// IsVertexCover, which scan the marked or the unmarked vertices' lists,
// agree with their definitions over ForEachEdge. The sets include
// random marks, greedy maximal independent sets, and those sets plus
// one more vertex — dependent sets that dominate every vertex — and
// the complements of all three, which are covers exactly when the sets
// are independent. The mate arrays include random entries
// (inconsistent, out of range, non-edges), greedy maximal matchings,
// and those matchings less one pair.
func TestOnePassPredicatesMatchDefinitions(t *testing.T) {
	independentDef := func(g *Graph, in []bool) bool {
		ok := true
		g.ForEachEdge(func(u, v int32) {
			ok = ok && !(in[u] && in[v])
		})
		return ok
	}
	coverDef := func(g *Graph, cover []bool) bool {
		ok := true
		g.ForEachEdge(func(u, v int32) {
			ok = ok && (cover[u] || cover[v])
		})
		return ok
	}
	misDef := func(g *Graph, in []bool) bool {
		if !independentDef(g, in) {
			return false
		}
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			dominated := in[v]
			for _, u := range g.Neighbors(v) {
				dominated = dominated || in[u]
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	maximalDef := func(g *Graph, m Matching) bool {
		if !IsMatching(g, m) {
			return false
		}
		maximal := true
		g.ForEachEdge(func(u, v int32) {
			maximal = maximal && (m[u] != -1 || m[v] != -1)
		})
		return maximal
	}
	counts := map[string]int{}
	check := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(30)
		g := GNP(n, src.Float64()*0.4, src)

		greedy := make([]bool, n)
		for _, v := range src.Perm(n) {
			free := true
			for _, u := range g.Neighbors(v) {
				free = free && !greedy[u]
			}
			greedy[v] = free
		}
		random := make([]bool, n)
		for v := range random {
			random[v] = src.Bool(0.4)
		}
		plusOne := append([]bool(nil), greedy...)
		for _, v := range src.Perm(n) {
			if !plusOne[v] {
				plusOne[v] = true
				counts["mis dependent dominating"]++
				break
			}
		}
		for _, in := range [][]bool{random, greedy, plusOne} {
			want := misDef(g, in)
			counts[fmt.Sprint("mis ", want)]++
			if IsMaximalIndependentSet(g, in) != want {
				t.Errorf("seed %d: IsMaximalIndependentSet(%v) != %v", seed, in, want)
				return false
			}
			want = independentDef(g, in)
			counts[fmt.Sprint("independent ", want)]++
			if IsIndependentSet(g, in) != want {
				t.Errorf("seed %d: IsIndependentSet(%v) != %v", seed, in, want)
				return false
			}
			complement := make([]bool, n)
			for v := range complement {
				complement[v] = !in[v]
			}
			for _, cover := range [][]bool{in, complement} {
				want = coverDef(g, cover)
				counts[fmt.Sprint("cover ", want)]++
				if IsVertexCover(g, cover) != want {
					t.Errorf("seed %d: IsVertexCover(%v) != %v", seed, cover, want)
					return false
				}
			}
		}

		matched := NewMatching(n)
		for _, v := range src.Perm(n) {
			for _, u := range g.Neighbors(v) {
				if matched[v] == -1 && matched[u] == -1 {
					matched.Match(v, u)
				}
			}
		}
		lessOne := matched.Clone()
		if edges := lessOne.Edges(); len(edges) > 0 {
			lessOne.Unmatch(edges[src.Intn(len(edges))][0])
		}
		random2 := NewMatching(n)
		for v := range random2 {
			if src.Bool(0.3) {
				random2[v] = int32(src.Intn(n+2)) - 1
			}
		}
		for _, m := range []Matching{matched, lessOne, random2} {
			want := maximalDef(g, m)
			counts[fmt.Sprint("matching ", want)]++
			if IsMaximalMatching(g, m) != want {
				t.Errorf("seed %d: IsMaximalMatching(%v) != %v", seed, m, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, key := range []string{"mis true", "mis false", "mis dependent dominating", "independent true", "independent false", "cover true", "cover false", "matching true", "matching false"} {
		if counts[key] == 0 {
			t.Errorf("no case with %s", key)
		}
	}
}
