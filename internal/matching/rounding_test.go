package matching

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// roundWithEdgeSet is the reference form of RoundFractional: x is a
// per-edge array indexed by an EdgeIndex, each choice is looked up by
// edge id, and H is an edge set built with a map. It also returns how
// many edges of H both endpoints chose.
func roundWithEdgeSet(frac *FracResult, candidate []bool, src *rng.Source) (graph.Matching, int) {
	g := frac.g
	n := g.NumVertices()
	ix := graph.NewEdgeIndex(g)
	x := make([]float64, ix.NumEdges())
	g.ForEachEdge(func(u, v int32) { x[ix.ID(u, v)] = frac.EdgeWeight(u, v) })
	chosen := make([]int32, n)
	for v := range chosen {
		chosen[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		if !candidate[v] {
			continue
		}
		r := src.Float64()
		acc := 0.0
		for _, u := range g.Neighbors(v) {
			xe := x[ix.ID(u, v)]
			if xe <= 0 {
				continue
			}
			acc += xe / 10
			if r < acc {
				chosen[v] = u
				break
			}
		}
	}
	type edge struct{ u, v int32 }
	degH := make([]int32, n)
	seen := make(map[edge]bool)
	var h []edge
	mutual := 0
	for v := int32(0); v < int32(n); v++ {
		u := chosen[v]
		if u == -1 {
			continue
		}
		e := edge{min(u, v), max(u, v)}
		if seen[e] {
			mutual++
			continue
		}
		seen[e] = true
		h = append(h, e)
		degH[e.u]++
		degH[e.v]++
	}
	m := graph.NewMatching(n)
	for _, e := range h {
		if degH[e.u] == 1 && degH[e.v] == 1 {
			m.Match(e.u, e.v)
		}
	}
	return m, mutual
}

// TestRoundFractionalMatchesEdgeSet holds RoundFractional to its
// reference form on Simulate and Central results and on synthetic
// fractional results whose heavy rungs make most candidates choose, so
// that many edges are chosen from both ends. Candidate sets and rounding
// seeds are random.
func TestRoundFractionalMatchesEdgeSet(t *testing.T) {
	var cases []*FracResult
	for seed := uint64(1); seed <= 4; seed++ {
		g := graph.GNP(300, 0.03, rng.New(seed))
		sim, err := Simulate(g, SimOptions{Seed: seed, Eps: 0.05, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sim.Frac, Central(g, 0.1))
		cases = append(cases, syntheticFrac(graph.GNP(60, 0.08, rng.New(seed+10)), rng.New(seed+20)))
	}
	cases = append(cases, syntheticFrac(graph.Path(2), rng.New(3)), syntheticFrac(graph.Star(20), rng.New(4)))
	mutual, matched := 0, 0
	for i, frac := range cases {
		n := frac.g.NumVertices()
		for trial := uint64(0); trial < 20; trial++ {
			src := rng.New(rng.Hash(uint64(i), trial))
			candidate := make([]bool, n)
			p := src.Float64()
			for v := range candidate {
				candidate[v] = src.Bool(p)
			}
			seed := src.Uint64()
			want, mu := roundWithEdgeSet(frac, candidate, rng.New(seed))
			got := RoundFractional(frac, candidate, rng.New(seed))
			if !slices.Equal(got, want) {
				t.Fatalf("case %d trial %d: mates differ from the edge-set reference:\n got %v\nwant %v", i, trial, got, want)
			}
			mutual += mu
			matched += got.Size()
		}
	}
	if mutual == 0 || matched == 0 {
		t.Fatalf("%d edges chosen from both ends and %d matched: too few to test", mutual, matched)
	}
}

// syntheticFrac returns a fractional result on g with random freeze
// levels, some vertices outside V′ and rungs up to 10, so that
// Σ x_e/10 often reaches 1 and a candidate chooses an edge surely. Y is
// the neighbour-order sum of x, as in a simulation's result.
func syntheticFrac(g *graph.Graph, src *rng.Source) *FracResult {
	n := g.NumVertices()
	const iters = 6
	frac := &FracResult{
		Y:          make([]float64, n),
		Cover:      make([]bool, n),
		Iterations: iters,
		g:          g,
		level:      make([]int32, n),
		inV:        make([]bool, n),
		ladder:     make([]float64, iters+1),
	}
	for k := range frac.ladder {
		frac.ladder[k] = 10 * src.Float64()
	}
	for v := range frac.level {
		frac.level[v] = int32(src.Intn(iters+2)) - 1
		frac.inV[v] = !src.Bool(0.1)
	}
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.Neighbors(v) {
			frac.Y[v] += frac.EdgeWeight(v, u)
		}
	}
	return frac
}

// TestFracWeightsMatchEdgeWeights checks, bit for bit, that Weight is
// the sum of EdgeWeight in ForEachEdge order, and that a simulation's
// Y[v] is the sum of EdgeWeight over v's neighbours in neighbour order.
// The simulations include removed vertices, whose edges weigh 0.
func TestFracWeightsMatchEdgeWeights(t *testing.T) {
	removed := 0
	for seed := uint64(1); seed <= 3; seed++ {
		for _, g := range []*graph.Graph{
			graph.GNP(400, 0.05, rng.New(seed)),
			graph.PreferentialAttachment(600, 6, rng.New(seed)),
		} {
			for _, e := range []float64{0.02, 0.25} {
				name := fmt.Sprintf("seed=%d/n=%d/eps=%g", seed, g.NumVertices(), e)
				sim, err := Simulate(g, SimOptions{Seed: seed, Eps: e})
				if err != nil {
					t.Fatal(err)
				}
				checkWeightSum(t, name+"/simulate", sim.Frac)
				checkWeightSum(t, name+"/central", Central(g, e))
				for v := int32(0); v < int32(g.NumVertices()); v++ {
					y := 0.0
					for _, u := range g.Neighbors(v) {
						y += sim.Frac.EdgeWeight(v, u)
					}
					if math.Float64bits(y) != math.Float64bits(sim.Frac.Y[v]) {
						t.Fatalf("%s: Y[%d] = %v, neighbour-order sum of EdgeWeight %v", name, v, sim.Frac.Y[v], y)
					}
					if !sim.Frac.inV[v] {
						removed++
					}
				}
			}
		}
	}
	if removed == 0 {
		t.Fatal("no simulation removed a vertex from V′")
	}
}

func checkWeightSum(t *testing.T, name string, frac *FracResult) {
	t.Helper()
	w := 0.0
	frac.g.ForEachEdge(func(u, v int32) { w += frac.EdgeWeight(u, v) })
	if got := frac.Weight(); math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("%s: Weight() = %v, ForEachEdge sum of EdgeWeight %v", name, got, w)
	}
}
