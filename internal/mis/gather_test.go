package mis

import (
	"errors"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/mpc"
	"mpcgraph/internal/rng"
)

// TestMPCGatherChargesOneRoundIntoLeader: under MPC a phase gather and
// the final gather each charge exactly one round, every word of it lands
// on machine 0, and the word count is the gathered vertices plus two
// words per gathered edge, both counted here straight from the graph.
func TestMPCGatherChargesOneRoundIntoLeader(t *testing.T) {
	g := graph.GNP(400, 0.05, rng.New(5))
	n := g.NumVertices()
	keep := make([]bool, n)
	src := rng.New(6)
	for v := range keep {
		keep[v] = src.Intn(3) == 0
	}
	var verts int
	var edges int64
	for u := int32(0); u < int32(n); u++ {
		if !keep[u] {
			continue
		}
		verts++
		for _, v := range g.Neighbors(u) {
			if u < v && keep[v] {
				edges++
			}
		}
	}
	words := int64(verts) + 2*edges
	if verts == 0 || edges == 0 {
		t.Fatal("empty gather: nothing to test")
	}
	gathers := []struct {
		name   string
		gather func(mt *mpcMISMeter) error
	}{
		{"phase", func(mt *mpcMISMeter) error {
			gotVerts, gotEdgeWords, err := mt.PhaseGather(7, keep)
			if err == nil && (gotVerts != verts || gotEdgeWords != 2*edges) {
				t.Errorf("phase gather reports %d vertices and %d edge words, want %d and %d", gotVerts, gotEdgeWords, verts, 2*edges)
			}
			return err
		}},
		{"final", func(mt *mpcMISMeter) error { return mt.FinalGather(keep) }},
	}
	for _, tc := range gathers {
		name, gather := tc.name, tc.gather
		for _, workers := range []int{1, 3} {
			mt, err := newMPCMISMeter(g, Options{Seed: 3, Machines: 6, Workers: workers}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if err := gather(mt); err != nil {
				t.Fatalf("%s gather: %v", name, err)
			}
			c := mt.Costs()
			if c.Rounds != 1 || c.TotalWords != words || c.MaxMachineWords != words || c.Violations != 0 {
				t.Errorf("%s gather, workers %d: costs %+v, want 1 round of %d words, all into one machine", name, workers, c, words)
			}
			// A leader one word short of the gather fails it, and the
			// audit names machine 0's inbox with the full word count.
			mt.cluster, _ = mpc.NewCluster(mpc.Config{Machines: mt.machines, CapacityWords: words - 1, Strict: true})
			err = gather(mt)
			var ce *mpc.CapacityError
			if !errors.As(err, &ce) || ce.Machine != 0 || ce.Dir != "in" || ce.Words != words || ce.Round != 1 {
				t.Errorf("%s gather, workers %d: strict error %v, want machine 0's inbox of %d words", name, workers, err, words)
			}
		}
	}
}
