package mis

import (
	"fmt"
	"math"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/rng"
)

// BenchmarkPrefixPhase measures one rank-prefix phase of the Section 3
// MPC simulation — the gather-volume scan, leader extension, broadcast
// and residual-degree instrumentation — at the √n-degree density the
// experiments use.
func BenchmarkPrefixPhase(b *testing.B) {
	const n = 1 << 14
	g := graph.GNP(n, 1/math.Sqrt(float64(n)), rng.New(7))
	opts := Options{Seed: 7}.withDefaults()
	perm := rng.New(opts.Seed).SplitString("mis-perm").Perm(n)
	ranks := prefixRanks(n, g.MaxDegree(), opts.PolylogDegree(n), opts.Alpha)
	if len(ranks) == 0 {
		b.Fatal("no prefix phases at this scale")
	}
	r := ranks[0]
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := opts
				o.Workers = workers
				mt, err := newMPCMISMeter(g, o)
				if err != nil {
					b.Fatal(err)
				}
				alive := make([]bool, n)
				for j := range alive {
					alive[j] = true
				}
				inMIS, inRange := make([]bool, n), make([]bool, n)
				b.StartTimer()
				if _, err := runPrefixPhase(g, perm, alive, inMIS, inRange, 0, r, mt, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandGreedyMPC measures the full Theorem 1.1 simulation.
func BenchmarkRandGreedyMPC(b *testing.B) {
	const n = 1 << 13
	g := graph.GNP(n, 1/math.Sqrt(float64(n)), rng.New(11))
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RandGreedyMPC(g, Options{Seed: 11, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGatherAllMPC measures an MPC solve that takes the gather-all
// path, as mpcgraph solve does on rmat files of this size: rmat 2¹⁷ at
// the rmat scenario's defaults fits the leader's memory, so the run is
// one gather of the whole input followed by the greedy on the leader.
func BenchmarkGatherAllMPC(b *testing.B) {
	const n = 1 << 17
	g := graph.RMAT(n, 8*n, 0.57, 0.19, 0.19, rng.New(3))
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{Seed: 3, Workers: workers}
			res, err := RandGreedyMPC(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Stages) != 1 || res.Stages[0].Name != "gather-all" {
				b.Fatalf("stages %+v: not the gather-all path", res.Stages)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RandGreedyMPC(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
