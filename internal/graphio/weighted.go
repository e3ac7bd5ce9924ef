package graphio

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// Weighted edge list: the native edge-list dialect with a third
// positive-real weight column.
//
//	# <comment>
//	n <count>           (optional header; otherwise n = 1 + max id seen)
//	<u> <v> <w>         (0-based endpoints, w > 0)
//
// Duplicate edges are collapsed and must agree on the weight.
// See docs/formats.md.

// readWELScanner is the bufio.Scanner-based reference reader; the fast
// path in fastread.go is pinned against it by the parity and fuzz
// suites.
func readWELScanner(r io.Reader) (*Data, error) {
	sc := newScanner(r)
	var (
		edges   [][2]int32
		weights []float64
		n       = -1
		maxSeen = int32(-1)
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
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
		if len(fields) != 3 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v w', got %q", lineNo, line)
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
		wt, err := parseWeight(fields[2], lineNo)
		if err != nil {
			return nil, err
		}
		if u > maxSeen {
			maxSeen = u
		}
		if v > maxSeen {
			maxSeen = v
		}
		edges = append(edges, [2]int32{u, v})
		weights = append(weights, wt)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if n < 0 {
		n = int(maxSeen) + 1
	}
	if int(maxSeen) >= n {
		return nil, fmt.Errorf("graphio: vertex %d out of range for declared n=%d", maxSeen, n)
	}
	return assembleWeighted(n, edges, weights)
}

func writeWeightedEdgeList(w io.Writer, wg *graph.Weighted) error {
	lw := newLineWriter(w)
	lw.buf = strconv.AppendInt(append(lw.buf, "n "...), int64(wg.NumVertices()), 10)
	lw.endLine()
	forEachWeightedEdge(wg, func(u, v int32, wt float64) {
		lw.buf = appendWeight(appendPair(lw.buf, int64(u), int64(v)), wt)
		lw.endLine()
	})
	return lw.flush()
}
