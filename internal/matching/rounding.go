package matching

import (
	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// RoundFractional implements the randomized rounding of Lemma 5.1: every
// candidate vertex v (the paper's C̃, vertices with fractional weight at
// least 1-β) draws X_v — neighbor u with probability x_{uv}/10, the
// symbol ⋆ with the remaining mass. H is the set of chosen edges; an edge
// is good when no other chosen edge touches it, and the good edges form
// the output matching on frac's graph. The lemma guarantees at least
// |C̃|/50 good edges with probability 1 - 2exp(-|C̃|/5000); experiment E8
// measures the realized constant.
//
// Every decision is local to a vertex and its incident edges, so the
// procedure costs O(1) rounds in the MPC model, as Section 5 observes.
func RoundFractional(frac *FracResult, candidate []bool, src *rng.Source) graph.Matching {
	g := frac.g
	n := g.NumVertices()
	chosen := make([]int32, n)
	for v := range chosen {
		chosen[v] = -1
	}
	for v := int32(0); v < int32(n); v++ {
		if !candidate[v] {
			continue
		}
		r := src.Float64()
		// acc only grows, and ends at Σ x/10 up to rounding; Y[v] is Σ x
		// up to rounding, and boundSlack covers both. So a draw at or
		// past this bound, about nine in ten since y ≤ 1, would scan the
		// whole list and choose ⋆: it chooses ⋆ without the scan.
		if r >= frac.Y[v]/10*(1+boundSlack) {
			continue
		}
		acc := 0.0
		for _, u := range g.Neighbors(v) {
			x := frac.EdgeWeight(v, u)
			if x <= 0 {
				continue
			}
			acc += x / 10
			if r < acc {
				chosen[v] = u
				break
			}
		}
	}
	// degH counts the incidences of H. An edge both endpoints chose is
	// one edge of H, counted at its smaller end.
	degH := make([]int32, n)
	for v, u := range chosen {
		if inH(chosen, int32(v), u) {
			degH[v]++
			degH[u]++
		}
	}
	m := graph.NewMatching(n)
	for v, u := range chosen {
		if inH(chosen, int32(v), u) && degH[v] == 1 && degH[u] == 1 {
			m.Match(int32(v), u)
		}
	}
	return m
}

// inH reports whether v's choice u adds the edge {v, u} to H: v chose
// an edge, and it is not the larger end of an edge chosen by both.
func inH(chosen []int32, v, u int32) bool {
	return u != -1 && (u > v || chosen[u] != v)
}

// CandidateSet returns the paper's C̃ for rounding: cover vertices whose
// fractional weight reaches 1-beta. Lemma 4.2 guarantees at least a third
// of the cover qualifies with beta = 5ε.
func CandidateSet(frac *FracResult, beta float64) []bool {
	out := make([]bool, len(frac.Y))
	for v := range out {
		out[v] = frac.Cover[v] && frac.Y[v] >= 1-beta
	}
	return out
}
