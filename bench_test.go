package mpcgraph_test

// One sub-benchmark per experiment in the E1–E18 index. Each
// iteration regenerates the experiment's full table, so
//
//	go test -bench='Experiments/E5$' -benchmem
//
// reproduces the corresponding rows. `go run ./cmd/mpcgraph bench`
// renders the same tables human-readably.

import (
	"io"
	"testing"

	"mpcgraph/internal/bench"
)

// benchSink holds the last table so the work cannot be optimized away.
var benchSink *bench.Table

// BenchmarkExperiments runs every registered experiment at the
// non-quick instance sizes (quick under -short), one trial each to keep
// per-iteration cost bounded.
func BenchmarkExperiments(b *testing.B) {
	cfg := bench.Config{Seed: 2018, Trials: 1, Quick: testing.Short()}
	for _, id := range bench.IDs() {
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab, err := bench.Run(id, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatalf("%s produced no rows", id)
				}
				tab.Render(io.Discard)
				benchSink = tab
			}
		})
	}
}
