package graphio

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// METIS/Chaco adjacency format:
//
//	% <comment>
//	<n> <m> [<fmt>]
//	<neighbors of vertex 1>
//	...
//	<neighbors of vertex n>
//
// Vertices are 1-based; each undirected edge appears in both endpoint
// lines; a blank line is a vertex with no neighbors, so blank lines are
// significant after the header. The fmt flag is the standard 3-digit
// code: only 0 (plain) and 1 (edge weights, "v1 w1 v2 w2 ...") are
// supported — vertex weights and sizes are rejected. Deviating from the
// integer-weight METIS spec, weights are parsed and written as positive
// reals so weighted instances round-trip exactly. The total number of
// adjacency entries must be 2m and the two mentions of an edge must
// agree on the weight. See docs/formats.md.

// readMETIS is the METIS reader behind Read(FormatMETIS). It reads each
// vertex line in one pass over its bytes (metisLines.scan) and hands a
// line that pass cannot vouch for to the reference reader's loop body.
func readMETIS(r io.Reader) (*Data, error) {
	return readMETISLines(r, true)
}

// readMETISScanner is the reference reader: every vertex line goes
// through bufio.Scanner text, strings.Fields and strconv. readMETIS is
// pinned against it by the parity and fuzz suites.
func readMETISScanner(r io.Reader) (*Data, error) {
	return readMETISLines(r, false)
}

// metisLines collects the entries of the vertex lines.
type metisLines struct {
	n        int
	weighted bool
	edges    [][2]int32
	weights  []float64
	b        *graph.Builder
	entries  int64
	// The entries of the line being scanned, kept until it passes.
	ts []int32
	ws []float64
}

// add records the entry u–t of weight wt.
func (ml *metisLines) add(u, t int32, wt float64) {
	ml.entries++
	if ml.weighted {
		ml.edges = append(ml.edges, [2]int32{u, t})
		ml.weights = append(ml.weights, wt)
	} else {
		ml.b.AddEdge(u, t) // both mentions collapse at Build
	}
}

// scan reads the vertex line of u when it is well formed: ids of 1 to
// 18 digits, each followed in the weighted form by a weight, separated
// and surrounded by ASCII space. Each id passes the base, bound and
// self-loop checks of the reference and each weight its ParseFloat
// test. The line's entries are added only once all of it has passed;
// otherwise scan adds nothing and reports false, and the caller parses
// the line as the reference does, which also makes its error.
func (ml *metisLines) scan(line []byte, u int32) bool {
	ml.ts, ml.ws = ml.ts[:0], ml.ws[:0]
	for i := skipSpace(line, 0); i < len(line); i = skipSpace(line, i) {
		t, end, ok := scanID(line, i, 1, ml.n)
		if !ok || t == u {
			return false
		}
		ml.ts, i = append(ml.ts, t), end
		if ml.weighted {
			var w float64
			if w, i, ok = scanWeight(line, skipSpace(line, i)); !ok {
				return false
			}
			ml.ws = append(ml.ws, w)
		}
	}
	for k, t := range ml.ts {
		var wt float64
		if ml.weighted {
			wt = ml.ws[k]
		}
		ml.add(u, t, wt)
	}
	return true
}

// readMETISLines reads a METIS file, trying scan on each vertex line
// first when fast is set.
func readMETISLines(r io.Reader, fast bool) (*Data, error) {
	sc := newScanner(r)
	lineNo := 0
	// Header: the first non-comment line. Comments are only skipped
	// before the header and between vertex lines would change vertex
	// numbering, so after the header only '%'-prefixed lines are skipped.
	var header []string
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "%") {
			continue
		}
		if line == "" {
			return nil, fmt.Errorf("graphio: line %d: blank line before METIS header", lineNo)
		}
		header = strings.Fields(line)
		break
	}
	if header == nil {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
		return nil, fmt.Errorf("graphio: missing METIS header")
	}
	if len(header) < 2 || len(header) > 3 {
		return nil, fmt.Errorf("graphio: line %d: METIS header wants '<n> <m> [<fmt>]', got %d fields", lineNo, len(header))
	}
	n, err := parseVertexCount(header[0], lineNo)
	if err != nil {
		return nil, err
	}
	m64, err := strconv.ParseInt(header[1], 10, 64)
	if err != nil || m64 < 0 {
		return nil, fmt.Errorf("graphio: line %d: bad edge count %q", lineNo, header[1])
	}
	weighted := false
	if len(header) == 3 {
		switch strings.TrimLeft(header[2], "0") {
		case "":
			// fmt 0/00/000: plain.
		case "1":
			weighted = true
		default:
			return nil, fmt.Errorf("graphio: line %d: unsupported METIS fmt %q (only edge weights, fmt 001, are supported)", lineNo, header[2])
		}
	}

	ml := &metisLines{n: n, weighted: weighted}
	if !weighted {
		ml.b = graph.NewBuilder(n)
	}
	for v := 0; v < n; {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("graphio: %w", err)
			}
			return nil, fmt.Errorf("graphio: METIS file ends after %d of %d vertex lines", v, n)
		}
		lineNo++
		u := int32(v)
		if fast && ml.scan(sc.Bytes(), u) {
			v++
			continue
		}
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "%") {
			continue
		}
		fields := strings.Fields(line)
		if weighted && len(fields)%2 != 0 {
			return nil, fmt.Errorf("graphio: line %d: odd token count %d on weighted METIS vertex line", lineNo, len(fields))
		}
		step := 1
		if weighted {
			step = 2
		}
		for i := 0; i < len(fields); i += step {
			t, err := parseVertex(fields[i], 1, n, lineNo)
			if err != nil {
				return nil, err
			}
			if t == u {
				return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u+1)
			}
			var wt float64
			if weighted {
				if wt, err = parseWeight(fields[i+1], lineNo); err != nil {
					return nil, err
				}
			}
			ml.add(u, t, wt)
		}
		v++
	}
	// Only comments and trailing whitespace may follow the last vertex.
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "%") {
			return nil, fmt.Errorf("graphio: line %d: content after %d METIS vertex lines", lineNo, n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if ml.entries != 2*m64 {
		return nil, fmt.Errorf("graphio: %d adjacency entries but METIS header declared m=%d (want %d entries)", ml.entries, m64, 2*m64)
	}
	if weighted {
		return assembleWeighted(n, ml.edges, ml.weights)
	}
	g, err := ml.b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return Unweighted(g), nil
}

func writeMETIS(w io.Writer, d *Data) error {
	g := d.G
	lw := newLineWriter(w)
	lw.buf = appendPair(lw.buf, int64(g.NumVertices()), int64(g.NumEdges()))
	if d.WG != nil {
		lw.buf = append(lw.buf, " 001"...)
	}
	lw.endLine()
	// Edge ids run in lexicographic (u < v) order, so row v's edges to
	// larger neighbours take the next ids in turn, and its edge to a
	// smaller neighbour u takes next[u]: the id of u's first edge to a
	// larger vertex, advanced as later rows meet u in ascending order.
	var next []int32
	if d.WG != nil {
		next = make([]int32, g.NumVertices())
	}
	id := int32(0)
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if next != nil {
			next[v] = id
		}
		for i, u := range g.Neighbors(v) {
			if i > 0 {
				lw.buf = append(lw.buf, ' ')
			}
			lw.buf = strconv.AppendInt(lw.buf, int64(u)+1, 10)
			if next != nil {
				e := id
				if u < v {
					e = next[u]
					next[u]++
				} else {
					id++
				}
				lw.buf = appendWeight(lw.buf, d.WG.W[e])
			}
			lw.spill()
		}
		lw.endLine()
	}
	return lw.flush()
}
