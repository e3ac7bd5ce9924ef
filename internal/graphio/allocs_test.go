package graphio

import (
	"bytes"
	"io"
	"testing"

	"mpcgraph/internal/graph"
	"mpcgraph/internal/raceflag"
	"mpcgraph/internal/rng"
)

// allocsInstance is the allocation guards' instance: G(4096, 1/32),
// about 262k edges, plain and with weights.
func allocsInstance() (plain, weighted *Data) {
	g := graph.GNP(1<<12, 1.0/32, rng.New(7))
	return Unweighted(g), FromWeighted(graph.RandomWeights(g, 0.5, 4.5, rng.New(8)))
}

// TestReaderAllocsCeiling pins the chunk-parallel readers to a constant
// allocation count: one window buffer, the edge slices (amortized by
// the capacity-doubling append), per-window shard state, and the CSR
// build — never the per-line Scanner/strconv garbage of a scanner
// reader, which costs two allocations per entry line (525,141 for the
// DIMACS read of this instance before its reader moved to the fast
// path). Each ceiling is about 2× the count measured at Go 1.24
// (AllocsPerRun runs at GOMAXPROCS 1, so the count does not depend on
// the core count). Skipped under race: the race runtime allocates on
// its own behalf.
func TestReaderAllocsCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	plain, weighted := allocsInstance()
	cases := []struct {
		name    string
		d       *Data
		f       Format
		ceiling float64
	}{
		{"el", plain, FormatEdgeList, 120},             // measured 49
		{"wel", weighted, FormatWeightedEdgeList, 180}, // measured 88
		{"dimacs", plain, FormatDIMACS, 100},           // measured 51
		{"mm-pattern", plain, FormatMatrixMarket, 100}, // measured 52
		{"mm-real", weighted, FormatMatrixMarket, 180}, // measured 92
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, tc.d, tc.f); err != nil {
			t.Fatal(err)
		}
		input := buf.Bytes()
		allocs := testing.AllocsPerRun(10, func() {
			got, err := Read(bytes.NewReader(input), tc.f)
			if err != nil {
				t.Fatal(err)
			}
			if got.G.NumEdges() != tc.d.G.NumEdges() {
				t.Fatalf("%s: read %d edges, want %d", tc.name, got.G.NumEdges(), tc.d.G.NumEdges())
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s read: %.0f allocs/op, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}

// TestWriterAllocsCeiling pins the streaming writers: one reused append
// buffer, flushed in 64 KiB slabs — independent of edge count. Each
// writer measured 1 allocation, the weighted METIS writer 2 with its
// per-vertex edge-id cursors (the DIMACS and MatrixMarket writers made
// 492,221 and the weighted METIS writer 2,087,479 on this instance when
// they called fmt.Fprintf per edge).
func TestWriterAllocsCeiling(t *testing.T) {
	const writerAllocsCeiling = 2
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	plain, weighted := allocsInstance()
	cases := []struct {
		name string
		d    *Data
		f    Format
	}{
		{"el", plain, FormatEdgeList},
		{"wel", weighted, FormatWeightedEdgeList},
		{"dimacs", plain, FormatDIMACS},
		{"mm-pattern", plain, FormatMatrixMarket},
		{"mm-real", weighted, FormatMatrixMarket},
		{"metis", plain, FormatMETIS},
		{"metis-weighted", weighted, FormatMETIS},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(10, func() {
			if err := Write(io.Discard, tc.d, tc.f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > writerAllocsCeiling {
			t.Errorf("%s write: %.0f allocs/op, ceiling %d", tc.name, allocs, writerAllocsCeiling)
		}
	}
}
