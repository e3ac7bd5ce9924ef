package graphio

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList exercises the parser with arbitrary inputs: it must
// never panic, and on success the resulting graph must survive a
// write/read round trip unchanged. Run with `go test -fuzz=FuzzRead` for
// active fuzzing; the seed corpus doubles as a regression suite.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"n 4\n0 1\n2 3\n",
		"# comment only\n",
		"0 1\n1 0\n0 1\n",
		"n 0\n",
		"n 10\n\n\n9 8\n",
		"0 999999\n",
		"n x\n",
		"1 1\n",
		"a b\n",
		"0 1 2\n",
		"n 2\n0 5\n",
		"-3 4\n",
		"n 3\n0 1\nn 5\n2 4\n",
		strings.Repeat("0 1\n", 1000),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	addBoundarySeeds(f, FormatEdgeList, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresHugeGraph(data) {
			return
		}
		// The fast reader must match the scanner reference bit for bit
		// on arbitrary bytes — same graph or same error string.
		readBoth(t, string(data), FormatEdgeList, 1, 4)
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip re-read: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
	})
}

// addBoundarySeeds appends the boundary rows of the parity table
// (boundaryInputs) to a fuzzer's seeds.
func addBoundarySeeds(f *testing.F, format Format, weighted bool) {
	addRows(f, boundaryInputs(format, weighted))
}

// addRows appends a parity corpus to a fuzzer's seeds, in name order.
func addRows(f *testing.F, rows map[string]string) {
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		f.Add([]byte(rows[name]))
	}
}

// declaresHugeGraph reports whether data contains a digit run of 7 or
// more characters — a vertex count or id in the millions. Such inputs
// are valid up to MaxVertices, but graph construction allocates O(n)
// memory, so a single 8-digit header would dominate the fuzz loop (and
// a 9-digit one, pre-cap, once timed out the whole run under -race);
// the fuzzers screen them out rather than spend their budget on
// allocator stress.
func declaresHugeGraph(data []byte) bool {
	run := 0
	for _, b := range data {
		if b >= '0' && b <= '9' {
			if run++; run >= 7 {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// fuzzFormat is the shared oracle for the structured-format fuzzers: a
// successful parse must survive a write/read round trip with the exact
// same instance (shape and weights); a rejected input must merely not
// panic.
func fuzzFormat(t *testing.T, data []byte, format Format) {
	t.Helper()
	if declaresHugeGraph(data) {
		return
	}
	d, err := Read(bytes.NewReader(data), format)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := Write(&buf, d, format); err != nil {
		t.Fatalf("write after successful read: %v", err)
	}
	d2, err := Read(bytes.NewReader(buf.Bytes()), format)
	if err != nil {
		t.Fatalf("round trip re-read: %v\nrendered:\n%s", err, buf.String())
	}
	if !sameData(d, d2) {
		t.Fatalf("round trip changed the instance:\nrendered:\n%s", buf.String())
	}
}

// fuzzParity demands that the fast reader of format match its scanner
// reference bit for bit on arbitrary bytes — same graph or same error
// string — sequentially and across shards.
func fuzzParity(t *testing.T, data []byte, format Format) {
	t.Helper()
	if !declaresHugeGraph(data) {
		readBoth(t, string(data), format, 1, 4)
	}
}

// FuzzReadWEL exercises the weighted-edge-list reader, mirroring
// FuzzReadEdgeList, so every structured graphio reader is fuzzed. Run
// with `go test -fuzz=FuzzReadWEL`.
func FuzzReadWEL(f *testing.F) {
	seeds := []string{
		"",
		"n 4\n0 1 1.5\n2 3 0.25\n",
		"# comment only\n",
		"0 1 2\n1 0 2\n0 1 2\n",
		"0 1 2\n1 0 3\n", // duplicate edge, conflicting weight
		"n 0\n",
		"0 1 0\n",    // zero weight
		"0 1 -2\n",   // negative weight
		"0 1 nan\n",  // not finite
		"0 1 +Inf\n", // not finite
		"0 1 1e309\n",
		"0 1 1e-300\n",
		"0 1 0.1\n2 3 3.0000000000000004\n", // weights needing exact round-trip
		"1 1 1\n",                           // self-loop
		"n 2\n0 5 1\n",                      // out of declared range
		"0 1\n",                             // missing weight column
		"0 1 2 3\n",                         // extra column
		"a b c\n",
		"n x\n",
		"n 3\n0 1 1\nn 5\n2 4 1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	addBoundarySeeds(f, FormatWeightedEdgeList, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParity(t, data, FormatWeightedEdgeList)
		fuzzFormat(t, data, FormatWeightedEdgeList)
	})
}

// FuzzReadDIMACS exercises the DIMACS edge-format reader, mirroring
// FuzzReadEdgeList. Run with `go test -fuzz=FuzzReadDIMACS`.
func FuzzReadDIMACS(f *testing.F) {
	seeds := []string{
		"",
		"p edge 0 0\n",
		"c comment\np edge 4 2\ne 1 2\ne 3 4\n",
		"p col 3 1\ne 1 3\n",
		"p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n",
		"p edge 2 1\ne 1 1\n",
		"p edge 2 1\ne 0 1\n",
		"p edge 2 1\ne 1 99\n",
		"p edge 2 2\ne 1 2\n",
		"e 1 2\n",
		"p edge 2 1\np edge 2 1\ne 1 2\n",
		"p edge x y\n",
		"x 1 2\n",
		"c only a comment\n",
		"p edge 3 1\ne 1\u00a02\n",
		"p edge 3 2\ne 1 2\np edge 3 2\ne 2 3\n",
		"c\r\np edge 3 1\r\nedge 1 3\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	addBoundarySeeds(f, FormatDIMACS, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParity(t, data, FormatDIMACS)
		fuzzFormat(t, data, FormatDIMACS)
	})
}

// FuzzReadMETIS exercises the METIS adjacency reader, mirroring
// FuzzReadEdgeList. Run with `go test -fuzz=FuzzReadMETIS`.
func FuzzReadMETIS(f *testing.F) {
	seeds := []string{
		"",
		"0 0\n",
		"2 1\n2\n1\n",
		"3 2\n2 3\n1\n1\n",
		"% comment\n3 1\n2\n1\n\n",
		"2 1 001\n2 1.5\n1 1.5\n",
		"2 1 001\n2 1.5\n1 2.5\n",
		"2 1 011\n1 2\n1 1\n",
		"3 2\n2\n1\n",
		"2 1\n2\n1\n3\n",
		"2 1\n1\n2\n",
		"2 1\n2 1\n",
		"x y\n",
		"2 1 001\n2 0\n1 0\n",
		"4 2\n\n3\n2\n\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	addRows(f, metisInputs())
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParity(t, data, FormatMETIS)
		fuzzFormat(t, data, FormatMETIS)
	})
}

// FuzzReadMatrixMarket exercises the MatrixMarket coordinate reader.
// Run with `go test -fuzz=FuzzReadMatrixMarket`.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"",
		"%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.5\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 3\n2 1 3\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 2.5\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n2 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n",
		"%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1 0\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n",
		"% not a banner\n2 2 1\n2 1\n",
		"%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n\n3 3 1\n3 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n4 4 1\n2 1 1\n3 2 -1\n",
		"%%MatrixMarket matrix coordinate pattern general\r\n3 3 2\r\n2\u00a01\n1 3\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	addBoundarySeeds(f, FormatMatrixMarket, false)
	addBoundarySeeds(f, FormatMatrixMarket, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzParity(t, data, FormatMatrixMarket)
		fuzzFormat(t, data, FormatMatrixMarket)
	})
}
