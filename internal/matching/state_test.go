package matching

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/machine/meter"
	"mpcgraph/internal/model"
	"mpcgraph/internal/rng"
	"mpcgraph/internal/scenario"
)

// TestPhaseStateMatchesRecompute drives the phase loop of simulateOn
// and, after every phase, checks the state carried to the next phase
// against a recount from scratch over G[V']:
//
//   - deg[v] is the number of unfrozen neighbours of v in V';
//   - a clean yold[v] has the bits of its neighbour-order sum;
//   - every vertex left in V' weighs at most 1+heavyTol (Line (i));
//   - every unfrozen one weighs at most 1-2ε (Line (j)).
//
// The last two hold only if the phase end formed y for every vertex that
// could cross a threshold. The scenarios are ones whose phases freeze
// and remove vertices; the test fails if none does.
func TestPhaseStateMatchesRecompute(t *testing.T) {
	var frozen, removed int
	for _, tc := range []struct {
		scenario string
		n        int
	}{
		{"rmat", 1 << 11},
		{"chung-lu", 1 << 11},
		{"preferential", 1 << 11},
		{"complete", 1 << 7},
	} {
		in, err := scenario.Generate(tc.scenario, tc.n, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []float64{0.02, 0.1, 0.25} {
			for _, fixed := range []bool{false, true} {
				for seed := uint64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("%s/eps=%g/fixed=%v/seed=%d", tc.scenario, e, fixed, seed)
					opts := SimOptions{Seed: seed, Eps: e, FixedThreshold: fixed, Workers: 1}.withDefaults()
					f, r := drivePhases(t, name, in.G, opts)
					frozen += f
					removed += r
				}
			}
		}
	}
	if frozen == 0 || removed == 0 {
		t.Fatalf("the phases froze %d and removed %d vertices: too few to test the carried state", frozen, removed)
	}
}

// drivePhases runs the phases of simulateOn on g, checks the carried
// state after each, and returns how many vertices the phases froze and
// removed.
func drivePhases(t *testing.T, name string, g *graph.Graph, opts SimOptions) (frozen, removed int) {
	t.Helper()
	n := g.NumVertices()
	mt, err := meter.New(opts.Model, meter.Config{N: n, MemoryFactor: opts.MemoryFactor})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1-4*opts.Eps, 1-2*opts.Eps
	if opts.FixedThreshold {
		lo = hi
	}
	oracle := rng.NewThresholdOracle(rng.Hash(opts.Seed, 0x7472), lo, hi)
	partSrc := rng.New(opts.Seed).SplitString("partition")
	st := new(simState)
	st.reset(g, opts.Eps, opts.Workers)
	d := float64(n)
	for phase := 0; d > opts.DCut(n) && phase < 64; phase++ {
		m := min(int(math.Sqrt(d)), meter.SimMachines(n))
		if m < 2 {
			break
		}
		iters := phaseIterations(m, opts.Eps, opts)
		stat, err := st.runPhase(mt, oracle, partSrc, m, iters, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCarriedState(t, fmt.Sprintf("%s/phase=%d", name, phase), st)
		frozen += stat.Frozen
		removed += stat.RemovedHeavy
		d *= math.Pow(1-opts.Eps, float64(iters))
	}
	return frozen, removed
}

// checkCarriedState recounts deg, yold and y of every vertex of V' from
// the freeze iterations, in neighbour order.
func checkCarriedState(t *testing.T, name string, st *simState) {
	t.Helper()
	g := st.g
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if !st.inV[v] {
			continue
		}
		var y, yold float64
		var deg int32
		for _, u := range g.Neighbors(v) {
			if !st.inV[u] {
				continue
			}
			te := st.t
			for _, f := range []int32{st.freezeIter[v], st.freezeIter[u]} {
				if f >= 0 && int(f) < te {
					te = int(f)
				}
			}
			y += st.w0 * st.pow[te]
			if st.freezeIter[u] >= 0 {
				yold += st.w0 * st.pow[st.freezeIter[u]]
			} else {
				deg++
			}
		}
		if y > 1+heavyTol {
			t.Fatalf("%s: vertex %d stays in V' with weight %v > 1", name, v, y)
		}
		if st.freezeIter[v] >= 0 {
			continue
		}
		if y > 1-2*st.eps {
			t.Fatalf("%s: vertex %d stays unfrozen with weight %v > 1-2ε", name, v, y)
		}
		if st.deg[v] != deg {
			t.Fatalf("%s: vertex %d has deg %d, recount %d", name, v, st.deg[v], deg)
		}
		if !st.dirty[v] && math.Float64bits(st.yold[v]) != math.Float64bits(yold) {
			t.Fatalf("%s: vertex %d is clean with yold %v, recount %v", name, v, st.yold[v], yold)
		}
	}
}

// TestReusedStateMatchesFresh runs simulateOn on a sequence of graphs
// with one state, as the integral pipeline does, and compares each
// result, PhaseStats, stages and the fractional result included, with
// the result of a fresh state. The sequence changes the vertex count,
// the ε and the worker count between runs, and repeats a graph.
func TestReusedStateMatchesFresh(t *testing.T) {
	gnp := graph.GNP(1<<10, 0.03, rng.New(1))
	rmat, err := scenario.Generate("rmat", 1<<11, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		g    *graph.Graph
		opts SimOptions
	}{
		{gnp, SimOptions{Seed: 1, Eps: 0.02, Workers: 1}},
		{rmat.G, SimOptions{Seed: 2, Eps: 0.02, Workers: 1}},
		{rmat.G, SimOptions{Seed: 3, Eps: 0.1, Workers: 0}},
		{gnp, SimOptions{Seed: 4, Eps: 0.1, Workers: 4, Model: model.CongestedClique}},
	}
	simulate := func(st *simState, g *graph.Graph, opts SimOptions) *SimResult {
		t.Helper()
		mt, err := meter.New(opts.Model, meter.Config{N: g.NumVertices(), MemoryFactor: 16})
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulateOn(st, g, opts, mt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared := new(simState)
	phases := 0
	for i, r := range runs {
		got := simulate(shared, r.g, r.opts)
		want := simulate(new(simState), r.g, r.opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: the reused state's result differs from a fresh state's", i)
		}
		phases += got.Phases
	}
	if phases == 0 {
		t.Fatal("no run had a phase")
	}
}
