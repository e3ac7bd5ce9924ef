// Social-network scheduling: pick a maximum-size set of creators who can
// all premiere simultaneously, where an edge means two creators share an
// audience and must not clash. This is exactly a maximal independent set
// on a heavy-tailed "shared audience" graph — the workload class
// (MapReduce-scale graphs with power-law degrees) that motivates the
// paper's O(log log Δ) MPC algorithm.
//
//	go run ./examples/socialnetwork
package main

import (
	"context"
	"fmt"
	"log"

	"mpcgraph"
)

// buildAudienceGraph grows a preferential-attachment network: each new
// creator collides with k existing ones, preferring popular creators —
// a standard heavy-tail model a user of the library would write.
func buildAudienceGraph(n, k int) *mpcgraph.Graph {
	b := mpcgraph.NewGraphBuilder(n)
	// Deterministic LCG so the example is reproducible without flags.
	state := uint64(88172645463325252)
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	targets := []int32{0}
	for v := 1; v < n; v++ {
		added := map[int32]bool{}
		for len(added) < k && len(added) < v {
			t := targets[next(len(targets))]
			if int(t) == v || added[t] {
				t = int32(next(v))
				if int(t) == v || added[t] {
					continue
				}
			}
			added[t] = true
			b.AddEdge(int32(v), t)
			targets = append(targets, t)
		}
		targets = append(targets, int32(v))
	}
	return b.MustBuild()
}

func main() {
	const creators = 20000
	g := buildAudienceGraph(creators, 3)
	fmt.Printf("audience-collision graph: %d creators, %d conflicts, max degree %d (heavy tail)\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// MemoryFactor 4 models machines that cannot hold the whole graph, so
	// the rank-prefix phases actually distribute the work.
	res, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemMIS,
		mpcgraph.Options{Seed: 2018, Strict: true, MemoryFactor: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !mpcgraph.IsMaximalIndependentSet(g, res.InMIS) {
		log.Fatal("schedule failed validation")
	}
	selected := 0
	for _, in := range res.InMIS {
		if in {
			selected++
		}
	}
	fmt.Printf("schedule: %d creators premiere simultaneously with zero conflicts\n", selected)
	fmt.Printf("cluster cost: %d MPC rounds (%d prefix phases), max %d words on any machine\n",
		res.Rounds, res.Phases, res.MaxMachineWords)
	fmt.Printf("for contrast, a Luby-style schedule would need Θ(log n) ≈ 15 rounds of full-graph traffic\n")
}
