// Marketplace assignment: advertisers bid on ad slots; each advertiser
// takes at most one slot and each slot serves at most one advertiser.
// Unweighted: maximize the number of filled slots with the paper's (1+ε)
// matching (Corollary 1.3). Weighted: maximize revenue with the (2+ε)
// weighted matching (Corollary 1.4).
//
//	go run ./examples/marketplace
package main

import (
	"context"
	"fmt"
	"log"

	"mpcgraph"
)

const (
	advertisers = 3000
	slots       = 2500
	bidsPer     = 6
)

func main() {
	n := advertisers + slots
	b := mpcgraph.NewGraphBuilder(n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	// Each advertiser bids on a handful of slots; bid values in cents.
	type bid struct {
		adv, slot int32
		cents     int
	}
	var bids []bid
	seen := map[[2]int32]bool{}
	for a := 0; a < advertisers; a++ {
		for k := 0; k < bidsPer; k++ {
			s := int32(advertisers + next(slots))
			key := [2]int32{int32(a), s}
			if seen[key] {
				continue
			}
			seen[key] = true
			b.AddEdge(int32(a), s)
			bids = append(bids, bid{adv: int32(a), slot: s, cents: 50 + next(950)})
		}
	}
	g := b.MustBuild()
	fmt.Printf("marketplace: %d advertisers, %d slots, %d bids\n", advertisers, slots, g.NumEdges())

	// Fill as many slots as possible: (1+eps) maximum matching.
	ctx := context.Background()
	fill, err := mpcgraph.Solve(ctx, g, mpcgraph.ProblemOnePlusEpsMatching, mpcgraph.Options{Seed: 1, Eps: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	if !mpcgraph.IsMatching(g, fill.M) {
		log.Fatal("assignment failed validation")
	}
	fmt.Printf("coverage objective: %d / %d slots filled (within 1.05 of optimal), %d simulated rounds\n",
		fill.M.Size(), slots, fill.Rounds)

	// Maximize revenue: weighted matching over the bid values.
	weights := make([]float64, 0, len(bids))
	// Edge-index order is lexicographic (advertiser, slot); rebuild the
	// per-edge weights in that order.
	cents := map[[2]int32]int{}
	for _, bd := range bids {
		cents[[2]int32{bd.adv, bd.slot}] = bd.cents
	}
	g.ForEachEdge(func(u, v int32) {
		weights = append(weights, float64(cents[[2]int32{u, v}]))
	})
	wg, err := mpcgraph.NewWeightedGraph(g, weights)
	if err != nil {
		log.Fatal(err)
	}
	rev, err := mpcgraph.Solve(ctx, wg, mpcgraph.ProblemWeightedMatching, mpcgraph.Options{Seed: 2, Eps: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	if !mpcgraph.IsMatching(g, rev.M) {
		log.Fatal("revenue assignment failed validation")
	}
	fmt.Printf("revenue objective: %d assignments worth $%.2f (within 2.1 of optimal)\n",
		rev.M.Size(), rev.Value/100)
}
