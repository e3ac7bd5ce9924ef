// Package graphio reads and writes graph instances in the portable
// on-disk formats understood by the mpcgraph CLI: the repository's
// native edge list, a weighted edge list, DIMACS edge format, the
// METIS/Chaco adjacency format, and MatrixMarket coordinate files —
// each optionally gzip-compressed, detected from the stream's magic
// bytes. Read/Write take an explicit Format; ReadFile/WriteFile resolve
// the format from the file extension (with a content sniff as the read
// fallback) and handle compression. Readers stream line-by-line into
// the parallel graph.Builder, so a parsed instance is bit-identical to
// one constructed in-process from the same edge set. The full grammar,
// limits and error behavior of every format are documented in
// docs/formats.md.
//
// The native edge-list dialect is: an optional header line "n <count>",
// then one "u v" pair per line (0-based vertex ids); '#' starts a
// comment. Without a header, n is one plus the largest vertex id seen.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// ReadEdgeList parses the edge-list format from r. It is the
// chunk-parallel fast path (see fastread.go); readEdgeListScanner is
// the line-by-line reference implementation it is pinned against.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	d, err := readNativeFast(r, false, 0, 0)
	if err != nil {
		return nil, err
	}
	return d.G, nil
}

// readEdgeListScanner is the bufio.Scanner-based reference reader. The
// fast path must match it bit for bit — same graphs, same error
// strings — on every input; the parity and fuzz suites enforce that.
func readEdgeListScanner(r io.Reader) (*graph.Graph, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var (
		edges   [][2]int32
		n       = -1
		maxSeen = int32(-1)
		lineNo  int
	)
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graphio: line %d: header must be 'n <count>'", lineNo)
			}
			v, err := parseVertexCount(fields[1], lineNo)
			if err != nil {
				return nil, err
			}
			n = v
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", lineNo, line)
		}
		u, err := parseVertex(fields[0], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		v, err := parseVertex(fields[1], 0, -1, lineNo)
		if err != nil {
			return nil, err
		}
		if u == v {
			return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u)
		}
		if u > maxSeen {
			maxSeen = u
		}
		if v > maxSeen {
			maxSeen = v
		}
		edges = append(edges, [2]int32{u, v})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if n < 0 {
		n = int(maxSeen) + 1
	}
	if int(maxSeen) >= n {
		return nil, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", maxSeen, n)
	}
	return graph.FromEdges(n, edges)
}

// WriteEdgeList writes g in the edge-list format with a header line.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	lw := newLineWriter(w)
	lw.buf = strconv.AppendInt(append(lw.buf, "n "...), int64(g.NumVertices()), 10)
	lw.endLine()
	g.ForEachEdge(func(u, v int32) {
		lw.buf = appendPair(lw.buf, int64(u), int64(v))
		lw.endLine()
	})
	return lw.flush()
}
