package mpcgraph

import (
	"math"
	"testing"

	"mpcgraph/internal/baseline"
)

// TestScaleLargeInstance exercises the headline claims at the largest
// sweep size of the experiments (n = 2^16, expected degree √n ≈ 8.4M
// edges): the MIS must stay valid with a round count that is flat in n,
// and the matching simulation must stay within its memory audit.
// Skipped under -short.
func TestScaleLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale stress test")
	}
	const n = 1 << 16
	g := RandomGraph(n, 1/math.Sqrt(n), 2018)
	if g.NumEdges() < 4_000_000 {
		t.Fatalf("unexpectedly sparse instance: %d edges", g.NumEdges())
	}

	res := mustSolve(t, g, ProblemMIS, Options{Seed: 1, Strict: true})
	if !IsMaximalIndependentSet(g, res.InMIS) {
		t.Fatal("large-scale MIS invalid")
	}
	if res.Rounds > 20 {
		t.Errorf("rounds = %d at n=2^16; the O(log log Δ) claim expects ~10", res.Rounds)
	}
	if res.MaxMachineWords > int64(16*n) {
		t.Errorf("per-machine load %d exceeds 16n", res.MaxMachineWords)
	}

	vc := mustSolve(t, g, ProblemVertexCover, Options{Seed: 2, Eps: 0.1, Strict: true})
	if !IsVertexCover(g, vc.InCover) {
		t.Fatal("large-scale cover invalid")
	}
	covered := 0
	for _, in := range vc.InCover {
		if in {
			covered++
		}
	}
	// Weak duality must hold for the reported certificate.
	if vc.FractionalWeight > float64(covered)+1e-6 {
		t.Errorf("dual weight %.0f exceeds cover size %d", vc.FractionalWeight, covered)
	}
	// Quality against the robust lower bound: any maximal matching
	// lower-bounds the optimum cover, so cover/|M| bounds the true ratio
	// from above. (The fractional dual itself can go loose at this scale
	// in dense regimes under the compressed phase schedule — a measured
	// finding measured by experiment E6.)
	m := baseline.GreedyMaximalMatching(g, g.EdgeList())
	if m.Size() == 0 {
		t.Fatal("no matching on a dense graph")
	}
	ratio := float64(covered) / float64(m.Size())
	if ratio > 2.3 {
		t.Errorf("cover %d / matching bound %d = %.2f exceeds the 2+eps envelope", covered, m.Size(), ratio)
	}
}
