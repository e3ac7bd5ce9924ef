package graphio

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// path). The METIS reader scans the Scanner's bytes of each vertex
// line instead of its text and fields (8,252 and 8,283 allocations
// before, plain and weighted). Each ceiling is about 2× the count
// measured at Go 1.24 (AllocsPerRun runs at GOMAXPROCS 1, so the count
// does not depend on the core count). Skipped under race: the race
// runtime allocates on its own behalf.
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
		{"metis", plain, FormatMETIS, 140},             // measured 69
		{"metis-weighted", weighted, FormatMETIS, 220}, // measured 108
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

// TestReadFileDeclaredCountsSizeNothing holds a read that knows its
// file's length to a small multiple of that length when the file
// declares an entry count it cannot hold: DIMACS m = 2^62 and
// MatrixMarket nnz = 2^62, each followed by two entry lines, after
// 64 KiB of comments that make the length dwarf the readers' fixed
// buffers. The slices are sized from bytes read, never from a declared
// count, so both reads fail on the count having allocated little.
func TestReadFileDeclaredCountsSizeNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	filler := func(comment string) string {
		return strings.Repeat(comment+" "+strings.Repeat("x", 61)+"\n", 1024)
	}
	cases := []struct{ name, content, want string }{
		{"huge-m.dimacs", filler("c") + "p edge 4 4611686018427387904\ne 1 2\ne 3 4\n",
			"graphio: 2 edge lines but problem line declared 4611686018427387904"},
		{"huge-nnz.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n" + filler("%") + "4 4 4611686018427387904\n2 1\n4 3\n",
			"graphio: 2 entries but size line declared 4611686018427387904"},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: got %v, want %q", tc.name, err, tc.want)
		}
		if alloc, size := after.TotalAlloc-before.TotalAlloc, uint64(len(tc.content)); alloc > 4*size {
			t.Errorf("%s: read allocated %d bytes for a %d-byte file, ceiling %d", tc.name, alloc, size, 4*size)
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
