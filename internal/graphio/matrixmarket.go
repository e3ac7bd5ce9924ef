package graphio

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// MatrixMarket coordinate format, reading a square sparse matrix as the
// adjacency matrix of an undirected graph:
//
//	%%MatrixMarket matrix coordinate <field> <symmetry>
//	% <comment>
//	<rows> <cols> <nnz>
//	<i> <j> [<value>]     (1-based; nnz entry lines)
//
// field must be pattern (unweighted), real or integer (weighted;
// values must be positive); symmetry must be symmetric or general. The
// matrix must be square; diagonal entries (self-loops) are rejected;
// under general symmetry the two orientations of an edge are collapsed
// and must agree on the value. Exactly nnz entry lines are required.
// See docs/formats.md.

// readMatrixMarketScanner is the bufio.Scanner-based reference reader;
// the fast path in fastread.go is pinned against it by the parity and
// fuzz suites.
func readMatrixMarketScanner(r io.Reader) (*Data, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
		return nil, fmt.Errorf("graphio: missing MatrixMarket banner")
	}
	lineNo := 1
	weighted, err := parseMMBanner(sc.Text())
	if err != nil {
		return nil, err
	}

	// Size line: first non-comment, non-blank line after the banner.
	sized := false
	var (
		n   int
		nnz int64
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if n, nnz, err = parseMMSize(line, lineNo); err != nil {
			return nil, err
		}
		sized = true
		break
	}
	if !sized {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
		return nil, fmt.Errorf("graphio: missing MatrixMarket size line")
	}

	var (
		edges   [][2]int32
		weights []float64
		b       *graph.Builder
		entries int64
	)
	if !weighted {
		b = graph.NewBuilder(n)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 2
		if weighted {
			want = 3
		}
		if len(fields) != want {
			return nil, fmt.Errorf("graphio: line %d: want %d fields, got %q", lineNo, want, line)
		}
		i, err := parseVertex(fields[0], 1, n, lineNo)
		if err != nil {
			return nil, err
		}
		j, err := parseVertex(fields[1], 1, n, lineNo)
		if err != nil {
			return nil, err
		}
		if i == j {
			return nil, fmt.Errorf("graphio: line %d: diagonal entry (self-loop) at %d", lineNo, i+1)
		}
		entries++
		if entries > nnz {
			return nil, fmt.Errorf("graphio: line %d: more than the declared %d entries", lineNo, nnz)
		}
		if weighted {
			wt, err := parseWeight(fields[2], lineNo)
			if err != nil {
				return nil, err
			}
			edges = append(edges, [2]int32{i, j})
			weights = append(weights, wt)
		} else {
			b.AddEdge(i, j)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if entries != nnz {
		return nil, fmt.Errorf("graphio: %d entries but size line declared %d", entries, nnz)
	}
	if weighted {
		return assembleWeighted(n, edges, weights)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return Unweighted(g), nil
}

// parseMMBanner checks the banner, line 1 as the scanner returns it,
// and reports whether the entries carry values.
func parseMMBanner(text string) (weighted bool, err error) {
	banner := strings.Fields(strings.ToLower(text))
	if len(banner) != 5 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" || banner[2] != "coordinate" {
		return false, fmt.Errorf("graphio: line 1: want '%%%%MatrixMarket matrix coordinate <field> <symmetry>', got %q", text)
	}
	switch banner[3] {
	case "pattern":
	case "real", "integer":
		weighted = true
	default:
		return false, fmt.Errorf("graphio: line 1: unsupported MatrixMarket field %q (want pattern, real or integer)", banner[3])
	}
	switch banner[4] {
	case "symmetric", "general":
	default:
		return false, fmt.Errorf("graphio: line 1: unsupported MatrixMarket symmetry %q (want symmetric or general)", banner[4])
	}
	return weighted, nil
}

// parseMMSize parses the trimmed size line "<rows> <cols> <nnz>" of a
// square matrix.
func parseMMSize(line string, lineNo int) (n int, nnz int64, err error) {
	size := strings.Fields(line)
	if len(size) != 3 {
		return 0, 0, fmt.Errorf("graphio: line %d: want '<rows> <cols> <nnz>', got %q", lineNo, strings.Join(size, " "))
	}
	if n, err = parseVertexCount(size[0], lineNo); err != nil {
		return 0, 0, err
	}
	cols, err := strconv.ParseInt(size[1], 10, 64)
	if err != nil || cols < 0 {
		return 0, 0, fmt.Errorf("graphio: line %d: bad column count %q", lineNo, size[1])
	}
	if int64(n) != cols {
		return 0, 0, fmt.Errorf("graphio: line %d: adjacency matrix must be square, got %dx%d", lineNo, n, cols)
	}
	nnz, err = strconv.ParseInt(size[2], 10, 64)
	if err != nil || nnz < 0 {
		return 0, 0, fmt.Errorf("graphio: line %d: bad entry count %q", lineNo, size[2])
	}
	return n, nnz, nil
}

// writeMatrixMarket writes the lower triangle of the symmetric adjacency
// matrix: pattern for plain graphs, real for weighted ones.
func writeMatrixMarket(w io.Writer, d *Data) error {
	g := d.G
	lw := newLineWriter(w)
	lw.buf = append(lw.buf, "%%MatrixMarket matrix coordinate "...)
	if d.WG != nil {
		lw.buf = append(lw.buf, "real symmetric"...)
	} else {
		lw.buf = append(lw.buf, "pattern symmetric"...)
	}
	lw.endLine()
	n := int64(g.NumVertices())
	lw.buf = strconv.AppendInt(append(appendPair(lw.buf, n, n), ' '), int64(g.NumEdges()), 10)
	lw.endLine()
	// Lower triangle: row > column, so the larger endpoint leads.
	if d.WG != nil {
		forEachWeightedEdge(d.WG, func(u, v int32, wt float64) {
			lw.buf = appendWeight(appendPair(lw.buf, int64(v)+1, int64(u)+1), wt)
			lw.endLine()
		})
	} else {
		g.ForEachEdge(func(u, v int32) {
			lw.buf = appendPair(lw.buf, int64(v)+1, int64(u)+1)
			lw.endLine()
		})
	}
	return lw.flush()
}
