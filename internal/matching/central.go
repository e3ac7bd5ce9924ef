// Package matching implements Sections 4 and 5 of the paper: the
// weight-raising fractional matching / vertex cover algorithms (Central
// and Central-Rand), their O(log log n)-round MPC simulation, the
// randomized rounding of Lemma 5.1, the integral (2+ε) matching and
// vertex cover pipeline of Theorem 1.2, and the corollaries — (1+ε)
// matching via augmenting-path boosting and (2+ε) weighted matching —
// plus the [LMSV11] filtering baseline used for small matchings.
package matching

import (
	"math"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// FracResult is the output of the fractional matching algorithms: the
// final per-vertex weights, the frozen vertex set, which is the vertex
// cover, and the fractional matching itself in the form the algorithms
// hold it. Every edge weight is a rung of one ladder, picked by the
// freeze levels of the edge's endpoints (Observation 4.3), so the
// per-edge weights x_e are formed where they are read (EdgeWeight).
type FracResult struct {
	// Y is the per-vertex weight sum of x.
	Y []float64
	// Cover marks the vertex cover (frozen vertices, plus any vertices
	// removed for exceeding weight 1 in the MPC simulation).
	Cover []bool
	// Iterations is the number of weight-raising iterations executed.
	Iterations int

	g      *graph.Graph
	level  []int32   // iteration at which v froze; -1 if it never did
	inV    []bool    // V′: an edge leaving it weighs 0; nil keeps every edge
	ladder []float64 // ladder[k]: the weight of an edge that stopped rising at iteration k
}

// EdgeWeight returns x_{uv} for an edge {u, v} of the graph: 0 if an
// endpoint left V′, and otherwise the ladder rung of the iteration at
// which the edge stopped rising.
func (r *FracResult) EdgeWeight(u, v int32) float64 {
	if r.inV != nil && (!r.inV[u] || !r.inV[v]) {
		return 0
	}
	return r.ladder[edgeLevel(r.level[u], r.level[v], r.Iterations)]
}

// edgeLevel returns the iteration at which an edge whose endpoints froze
// at iterations tu and tv (-1 if not yet) stopped rising, capped at now:
// the last iteration in which both endpoints were active.
func edgeLevel(tu, tv int32, now int) int {
	te := now
	if tu >= 0 && int(tu) < te {
		te = int(tu)
	}
	if tv >= 0 && int(tv) < te {
		te = int(tv)
	}
	return te
}

// Weight returns the total fractional matching weight Σ_e x_e, summed in
// edge order: by smaller endpoint, then by larger.
func (r *FracResult) Weight() float64 {
	w := 0.0
	for v := int32(0); v < int32(r.g.NumVertices()); v++ {
		for _, u := range r.g.Neighbors(v) {
			if u > v {
				w += r.EdgeWeight(v, u)
			}
		}
	}
	return w
}

// CoverSize returns the number of cover vertices.
func (r *FracResult) CoverSize() int { return graph.CountMarked(r.Cover) }

// maxCentralIterations bounds the weight-raising process: an edge weight
// starts at ~1/n and never exceeds 1, growing by 1/(1-eps) per iteration.
func maxCentralIterations(n int, eps float64) int {
	if n < 2 {
		return 1
	}
	return int(math.Log(float64(n))/(-math.Log1p(-eps))) + 8
}

// Central runs the deterministic algorithm of Section 4.1: edge weights
// start at 1/n; each iteration freezes every vertex whose weight reached
// 1-2eps (with its edges) and multiplies every active edge weight by
// 1/(1-eps). The frozen set is a (2+5eps)-approximate vertex cover and X
// a (2+5eps)-approximate fractional matching (Lemma 4.1).
func Central(g *graph.Graph, eps float64) *FracResult {
	threshold := 1 - 2*eps
	return centralCore(g, eps, func(int32, int) float64 { return threshold })
}

// CentralRand runs the random-threshold variant of Section 4.3: vertex v
// freezes in iteration t when its weight reaches T_{v,t}, drawn uniformly
// from [1-4eps, 1-2eps) by the oracle. It is the process the MPC
// simulation tracks.
func CentralRand(g *graph.Graph, eps float64, oracle rng.ThresholdOracle) *FracResult {
	return centralCore(g, eps, oracle.At)
}

// centralCore is the shared weight-raising loop. Every active edge
// carries the same weight, so the edges climb one ladder: x0, then one
// multiply-add per iteration.
func centralCore(g *graph.Graph, eps float64, threshold func(v int32, t int) float64) *FracResult {
	n := g.NumVertices()
	res := &FracResult{
		Y:     make([]float64, n),
		Cover: make([]bool, n),
		g:     g,
		level: make([]int32, n),
	}
	for v := range res.level {
		res.level[v] = -1
	}
	if g.NumEdges() == 0 {
		return res
	}
	x0 := 1 / float64(n)
	active := g.EdgeList()
	for _, e := range active {
		res.Y[e[0]] += x0
		res.Y[e[1]] += x0
	}
	res.ladder = []float64{x0}
	frozen := res.Cover // frozen vertices are exactly the cover
	growth := eps / (1 - eps)
	maxIter := maxCentralIterations(n, eps)
	t := 0
	for ; len(active) > 0 && t < maxIter; t++ {
		// (A) freeze vertices whose weight reached their threshold.
		for v := int32(0); v < int32(n); v++ {
			if !frozen[v] && res.Y[v] >= threshold(v, t) {
				frozen[v] = true
				res.level[v] = int32(t)
			}
		}
		// Freeze edges incident to frozen vertices; compact the rest.
		kept := active[:0]
		for _, e := range active {
			if frozen[e[0]] || frozen[e[1]] {
				continue
			}
			kept = append(kept, e)
		}
		active = kept
		// (B) raise surviving active edges by 1/(1-eps).
		x := res.ladder[t]
		delta := x * growth
		res.ladder = append(res.ladder, x+delta)
		for _, e := range active {
			res.Y[e[0]] += delta
			res.Y[e[1]] += delta
		}
	}
	// Defensive: the iteration bound guarantees the loop drains; if it
	// ever did not, freezing remaining endpoints preserves the cover
	// property. Their edges weigh the last rung either way.
	for _, e := range active {
		frozen[e[0]] = true
		frozen[e[1]] = true
	}
	res.Iterations = t
	return res
}
