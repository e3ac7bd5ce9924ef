package cli

import (
	"context"
	"testing"

	"mpcgraph"
	"mpcgraph/internal/raceflag"
	"mpcgraph/internal/registry"
	"mpcgraph/internal/scenario"
)

// TestCatalogSolutionsValid runs every registered (Problem, Model) pair
// on every catalog scenario over a range of seeds and checks each
// payload with registry.Validate, the check `mpcgraph solve` applies
// before it prints a result. Weighted matching runs on the weighted scenarios
// only. The sweep is what caught the direct stage of the matching
// simulation returning vertex covers that left an edge uncovered.
func TestCatalogSolutionsValid(t *testing.T) {
	n, seeds := 1024, uint64(12)
	if testing.Short() || raceflag.Enabled {
		n, seeds = 256, 4
	}
	for _, name := range scenario.Names() {
		size := n
		if name == "complete" {
			size = n / 4 // m grows as n², so the full size would dominate the sweep
		}
		t.Run(name, func(t *testing.T) {
			for k := uint64(1); k <= seeds; k++ {
				in, err := scenario.Generate(name, size, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				var instance mpcgraph.Instance = in.G
				if in.WG != nil {
					instance = in.WG
				}
				for _, pair := range mpcgraph.Algorithms() {
					if pair.Problem == mpcgraph.ProblemWeightedMatching && in.WG == nil {
						continue
					}
					opts := mpcgraph.Options{Seed: 999 + k, Workers: 1, Model: pair.Model}
					rep, err := mpcgraph.Solve(context.Background(), instance, pair.Problem, opts)
					if err != nil {
						t.Fatalf("%s seed=%d: %v", pair, k, err)
					}
					if err := registry.Validate(in.G, rep); err != nil {
						t.Errorf("scenario seed=%d solve seed=%d: %v", k, 999+k, err)
					}
				}
			}
		})
	}
}
