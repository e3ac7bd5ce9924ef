package matching

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
	"mpcgraph/internal/scenario"
)

// TestCentralRandDegenerateOracleEqualsCentral couples the two
// algorithms: with a zero-width threshold interval at 1-2eps,
// Central-Rand is definitionally Central.
func TestCentralRandDegenerateOracleEqualsCentral(t *testing.T) {
	g := graph.GNP(200, 0.05, rng.New(1))
	fixed := Central(g, eps)
	oracle := rng.NewThresholdOracle(9, 1-2*eps, 1-2*eps)
	randed := CentralRand(g, eps, oracle)
	if fixed.Iterations != randed.Iterations {
		t.Errorf("iterations differ: %d vs %d", fixed.Iterations, randed.Iterations)
	}
	g.ForEachEdge(func(u, v int32) {
		if a, b := fixed.EdgeWeight(u, v), randed.EdgeWeight(u, v); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("edge {%d,%d} weights differ: %v vs %v", u, v, a, b)
		}
	})
	for v := range fixed.Cover {
		if fixed.Cover[v] != randed.Cover[v] {
			t.Fatalf("cover differs at vertex %d", v)
		}
	}
}

// TestCentralWeightsAreQuantized checks the structural invariant that
// every final edge weight is exactly (1/n)·(1/(1-eps))^k for some
// integer 0 <= k <= iterations — the weight ladder the analysis builds
// on (Observation 4.3).
func TestCentralWeightsAreQuantized(t *testing.T) {
	g := graph.GNP(150, 0.06, rng.New(2))
	res := Central(g, eps)
	n := float64(g.NumVertices())
	g.ForEachEdge(func(u, v int32) {
		x := res.EdgeWeight(u, v)
		k := math.Log(x*n) / -math.Log1p(-eps)
		rounded := math.Round(k)
		if math.Abs(k-rounded) > 1e-6 || rounded < 0 || int(rounded) > res.Iterations {
			t.Fatalf("edge {%d,%d} weight %v is not on the ladder (k=%v, iters=%d)", u, v, x, k, res.Iterations)
		}
	})
}

// TestSimulateWeightsAreQuantized checks the same ladder for the MPC
// simulation with w0 = (1-2eps)/n (Line (2) of the pseudocode).
func TestSimulateWeightsAreQuantized(t *testing.T) {
	g := graph.GNP(300, 0.05, rng.New(3))
	res, err := Simulate(g, SimOptions{Seed: 4, Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	w0 := (1 - 2*eps) / float64(g.NumVertices())
	g.ForEachEdge(func(u, v int32) {
		x := res.Frac.EdgeWeight(u, v)
		if x == 0 {
			return // incident to a removed heavy vertex
		}
		k := math.Log(x/w0) / -math.Log1p(-eps)
		rounded := math.Round(k)
		if math.Abs(k-rounded) > 1e-6 || rounded < 0 || int(rounded) > res.Frac.Iterations {
			t.Fatalf("edge {%d,%d} weight %v off ladder (k=%v)", u, v, x, k)
		}
	})
}

// TestSimulateEveryEdgeFrozenOrRemoved verifies the termination
// condition: each edge has a frozen endpoint or an endpoint removed for
// exceeding weight 1.
func TestSimulateEveryEdgeFrozenOrRemoved(t *testing.T) {
	check := func(seed uint64) bool {
		g := graph.GNP(120, 0.08, rng.New(seed))
		res, err := Simulate(g, SimOptions{Seed: seed, Eps: eps})
		if err != nil {
			return false
		}
		return graph.IsVertexCover(g, res.Frac.Cover)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}

	// Regression cases: Line (j) of the last phase freezes vertices at
	// the iteration the direct stage starts in, and the direct stage once
	// mistook them for peers freezing alongside it. It then retired edges
	// that were never active, stopped with an active edge left, and
	// returned a set that was not a cover. Every case below did so.
	for _, tc := range []struct {
		scenario string
		seeds    []uint64
	}{
		{"rmat", []uint64{4, 34, 51, 94, 138, 142, 166}},
		{"chung-lu", []uint64{47, 121}},
	} {
		for _, s := range tc.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.scenario, s), func(t *testing.T) {
				in, err := scenario.Generate(tc.scenario, 1024, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Simulate(in.G, SimOptions{Seed: s, Eps: 0.02, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				in.G.ForEachEdge(func(u, v int32) {
					if !res.Frac.Cover[u] && !res.Frac.Cover[v] {
						t.Errorf("edge {%d,%d} is uncovered", u, v)
					}
				})
			})
		}
	}
}

// TestSimulateDualitySandwich checks |M_frac| <= |C| on random inputs
// (weak duality between the fractional matching and any vertex cover).
func TestSimulateDualitySandwich(t *testing.T) {
	check := func(seed uint64) bool {
		g := graph.GNP(100, 0.06, rng.New(seed))
		res, err := Simulate(g, SimOptions{Seed: seed + 7, Eps: eps})
		if err != nil {
			return false
		}
		return res.Frac.Weight() <= float64(res.Frac.CoverSize())+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSimulateLemma46ActiveDegreeBound asserts Lemma 4.6 directly: at
// every phase start, the maximum active degree in G'[V'] is at most the
// algorithm's degree bound d. The invariant is schedule-independent
// because Observation 4.3 (d·w_t = 1-2eps) holds for any per-phase
// iteration count, and Line (j) freezes any vertex whose weight reaches
// 1-2eps.
func TestSimulateLemma46ActiveDegreeBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{name: "dense", g: graph.GNP(800, 0.2, rng.New(50))},
		{name: "sqrt-degree", g: graph.GNP(2048, 1/math.Sqrt(2048), rng.New(51))},
		{name: "powerlaw", g: graph.PreferentialAttachment(1500, 8, rng.New(52))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Simulate(tc.g, SimOptions{Seed: 53, Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			for i, ps := range res.PhaseStats {
				if float64(ps.MaxActiveDegree) > ps.D+1e-9 {
					t.Errorf("phase %d: active degree %d exceeds bound d=%.1f (Lemma 4.6)",
						i, ps.MaxActiveDegree, ps.D)
				}
			}
		})
	}
}

// TestSimulateEpsClamping verifies the documented clamping of extreme
// epsilon values.
func TestSimulateEpsClamping(t *testing.T) {
	g := graph.GNP(100, 0.05, rng.New(5))
	for _, badEps := range []float64{-1, 0.00001, 0.9} {
		res, err := Simulate(g, SimOptions{Seed: 6, Eps: badEps})
		if err != nil {
			t.Fatalf("eps=%v: %v", badEps, err)
		}
		if !graph.IsVertexCover(g, res.Frac.Cover) {
			t.Errorf("eps=%v produced an invalid cover", badEps)
		}
	}
}

// TestSimulateStrictMemoryFailureInjection forces a capacity violation.
func TestSimulateStrictMemoryFailureInjection(t *testing.T) {
	g := graph.GNP(400, 0.2, rng.New(7)) // dense: phase shuffles are big
	_, err := Simulate(g, SimOptions{Seed: 8, Eps: eps, MemoryFactor: 0.02, Strict: true})
	if err == nil {
		t.Error("expected capacity error with S = 0.02 n")
	}
}

// TestRoundFractionalDisjointness: rounding output is always a valid
// matching regardless of the candidate set handed in.
func TestRoundFractionalDisjointness(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		g := graph.GNP(80, 0.1, src)
		res := Central(g, eps)
		// Adversarial candidate set: everyone, not just the heavy cover.
		candidate := make([]bool, g.NumVertices())
		for i := range candidate {
			candidate[i] = true
		}
		m := RoundFractional(res, candidate, src)
		return graph.IsMatching(g, m)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPipelineMatchingNeverOverlapsItself: across invocations the
// pipeline must never match a vertex twice.
func TestPipelineMatchingNeverOverlapsItself(t *testing.T) {
	check := func(seed uint64) bool {
		g := graph.GNP(150, 0.05, rng.New(seed))
		res, err := ApproxMaxMatching(g, PipelineOptions{Seed: seed, Eps: 0.2})
		if err != nil {
			return false
		}
		return graph.IsMatching(g, res.M)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBoostNeverInvalidates: boosting preserves matching validity on
// arbitrary random inputs and never shrinks the matching.
func TestBoostNeverInvalidates(t *testing.T) {
	check := func(seed uint64) bool {
		src := rng.New(seed)
		g := graph.GNP(100, 0.07, src)
		start := FilteringMaximalMatching(g, 256, src).M
		res, _ := BoostToOnePlusEps(context.Background(), g, start, 0.25)
		return graph.IsMatching(g, res.M) && res.M.Size() >= start.Size()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestWeightedMPCVariant: the metered variant produces a valid matching
// with the same local-optimality certificate and audited rounds.
func TestWeightedMPCVariant(t *testing.T) {
	src := rng.New(300)
	g := graph.GNP(250, 0.04, src)
	wg := graph.RandomWeights(g, 1, 20, src)
	res, err := ApproxMaxWeightedMatchingMPC(wg, WeightedMPCOptions{Eps: 0.1, Seed: 5, MemoryFactor: 16, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsMatching(g, res.M) {
		t.Fatal("metered weighted matching invalid")
	}
	if res.Rounds == 0 && g.NumEdges() > 0 {
		t.Error("no rounds audited")
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
	// Local-optimality certificate at the profit margin eps.
	violations := 0
	g.ForEachEdge(func(u, v int32) {
		conflict := 0.0
		if mu := res.M[u]; mu != -1 {
			conflict += wg.EdgeWeight(u, mu)
		}
		if mv := res.M[v]; mv != -1 {
			conflict += wg.EdgeWeight(v, mv)
		}
		if wg.EdgeWeight(u, v) > (1+0.1)*conflict+1e-9 {
			violations++
		}
	})
	if violations > 0 {
		t.Errorf("%d profitable edges remain", violations)
	}
}

// TestWeightedMPCComparableToSequential: both variants satisfy the same
// guarantee; their values should be in the same ballpark.
func TestWeightedMPCComparableToSequential(t *testing.T) {
	src := rng.New(301)
	g := graph.GNP(200, 0.05, src)
	wg := graph.RandomWeights(g, 1, 50, src)
	seq := ApproxMaxWeightedMatching(wg, 0.1, 7)
	met, err := ApproxMaxWeightedMatchingMPC(wg, WeightedMPCOptions{Eps: 0.1, Seed: 7, MemoryFactor: 16})
	if err != nil {
		t.Fatal(err)
	}
	if met.Value < 0.6*seq.Value {
		t.Errorf("metered value %v far below sequential %v", met.Value, seq.Value)
	}
}

// TestWeightedLocalOptimalityCertificate checks the termination
// postcondition of the [LPSR09] improvement loop: when the loop drains
// (no profitable edge remains), every edge satisfies
// w(e) <= (1+eps)·(w(M at u) + w(M at v)), which is exactly the local
// condition that certifies w(M*) <= (2+2eps)·w(M). The loop can also
// stop at its iteration budget, so the test uses a small eps whose
// budget comfortably exceeds the instance's convergence needs.
func TestWeightedLocalOptimalityCertificate(t *testing.T) {
	const wEps = 0.1
	for seed := uint64(0); seed < 5; seed++ {
		src := rng.New(seed + 200)
		g := graph.GNP(150, 0.05, src)
		wg := graph.RandomWeights(g, 1, 50, src)
		res := ApproxMaxWeightedMatching(wg, wEps, seed)
		violations := 0
		g.ForEachEdge(func(u, v int32) {
			conflict := 0.0
			if mu := res.M[u]; mu != -1 {
				conflict += wg.EdgeWeight(u, mu)
			}
			if mv := res.M[v]; mv != -1 {
				conflict += wg.EdgeWeight(v, mv)
			}
			if wg.EdgeWeight(u, v) > (1+wEps)*conflict+1e-9 {
				violations++
			}
		})
		if violations > 0 {
			t.Errorf("seed %d: %d profitable edges remain after convergence", seed, violations)
		}
	}
}
