// Network monitoring: place traffic monitors on routers so that every
// link has a monitored endpoint — a minimum vertex cover. The topology is
// a metro-style grid backbone with long-haul shortcuts. The paper's
// (2+ε)-approximate cover (Theorem 1.2) comes with a per-run certificate:
// the dual fractional matching weight lower-bounds any cover, so the
// printed ratio bound holds for this instance unconditionally.
//
//	go run ./examples/netmonitor
package main

import (
	"context"
	"fmt"
	"log"

	"mpcgraph"
)

func main() {
	const rows, cols = 60, 80
	n := rows * cols
	b := mpcgraph.NewGraphBuilder(n)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	// Grid backbone.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	// Long-haul shortcuts between random routers.
	state := uint64(2463534242)
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	for k := 0; k < n/4; k++ {
		u, v := int32(next(n)), int32(next(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.MustBuild()
	fmt.Printf("topology: %d routers, %d links\n", g.NumVertices(), g.NumEdges())

	res, err := mpcgraph.Solve(context.Background(), g, mpcgraph.ProblemVertexCover, mpcgraph.Options{Seed: 3, Eps: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	if !mpcgraph.IsVertexCover(g, res.InCover) {
		log.Fatal("cover failed validation")
	}
	monitors := 0
	for _, in := range res.InCover {
		if in {
			monitors++
		}
	}
	fmt.Printf("monitors placed: %d (every link observed)\n", monitors)
	fmt.Printf("certificate: any placement needs >= %.0f monitors (dual bound), so this run is within %.2fx of optimal\n",
		res.FractionalWeight, float64(monitors)/res.FractionalWeight)
	fmt.Printf("cluster cost: %d MPC rounds, max %d words per machine\n",
		res.Rounds, res.MaxMachineWords)
}
