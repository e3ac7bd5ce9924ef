package mpcgraph_test

import (
	"context"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/raceflag"
)

// TestSolveAllocsCeiling pins the allocations of one Solve per
// registered (Problem, Model) pair on a fixed n = 1024 instance with
// Workers 1: gnp for the unweighted problems, weighted-gnp for weighted
// matching. Allocation counts repeat exactly where host time does not,
// so a per-vertex or per-round make() that creeps into a simulator fails
// here. Each ceiling is about 1.2× the count measured when it was set,
// given beside it; a newly registered pair needs its own entry. Skipped
// under race: the race runtime allocates on its own behalf.
func TestSolveAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	ceilings := map[string]float64{
		"mis/mpc":                                18,  // 15
		"mis/congested-clique":                   92,  // 77
		"maximal-matching/mpc":                   12,  // 10
		"maximal-matching/congested-clique":      12,  // 10
		"approx-matching/mpc":                    407, // 339
		"approx-matching/congested-clique":       406, // 338
		"one-plus-eps-matching/mpc":              430, // 358
		"one-plus-eps-matching/congested-clique": 428, // 357
		"vertex-cover/mpc":                       73,  // 61
		"vertex-cover/congested-clique":          72,  // 60
		"weighted-matching/mpc":                  305, // 254
	}
	for _, pair := range mpcgraph.Algorithms() {
		t.Run(pair.String(), func(t *testing.T) {
			ceiling, ok := ceilings[pair.String()]
			if !ok {
				t.Fatalf("no allocation ceiling for %s", pair)
			}
			name := "gnp"
			if pair.Problem == mpcgraph.ProblemWeightedMatching {
				name = "weighted-gnp"
			}
			in, err := mpcgraph.GenerateScenario(name, 1024, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := mpcgraph.Options{Seed: 11, Workers: 1, Model: pair.Model}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := mpcgraph.Solve(context.Background(), in, pair.Problem, opts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > ceiling {
				t.Errorf("%.0f allocs/op, ceiling %.0f", allocs, ceiling)
			}
		})
	}
}
