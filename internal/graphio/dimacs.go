package graphio

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mpcgraph/internal/graph"
)

// DIMACS edge format (the clique/coloring challenge dialect):
//
//	c <comment>
//	p edge <n> <m>
//	e <u> <v>          (1-based endpoints)
//
// The problem line must precede every edge line; exactly m edge lines
// are required (a mismatch indicates a truncated or concatenated file);
// duplicate edges and both orientations are tolerated and collapsed;
// self-loops are rejected. "p col ..." is accepted as a problem-name
// synonym found in older instances. See docs/formats.md.

// readDIMACSScanner is the bufio.Scanner-based reference reader; the
// fast path in fastread.go is pinned against it by the parity and fuzz
// suites.
func readDIMACSScanner(r io.Reader) (*Data, error) {
	sc := newScanner(r)
	var (
		b        *graph.Builder
		n        int
		declared int64 = -1
		edges    int64
		lineNo   int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			continue
		case 'p':
			if b != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate problem line", lineNo)
			}
			nn, mm, err := parseDIMACSProblem(line, lineNo)
			if err != nil {
				return nil, err
			}
			n, declared = nn, mm
			b = graph.NewBuilder(n)
		case 'e':
			if b == nil {
				return nil, dimacsLineErr(line, lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("graphio: line %d: want 'e <u> <v>', got %q", lineNo, line)
			}
			u, err := parseVertex(fields[1], 1, n, lineNo)
			if err != nil {
				return nil, err
			}
			v, err := parseVertex(fields[2], 1, n, lineNo)
			if err != nil {
				return nil, err
			}
			if u == v {
				return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u+1)
			}
			b.AddEdge(u, v)
			edges++
		default:
			return nil, dimacsLineErr(line, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graphio: missing DIMACS problem line")
	}
	if edges != declared {
		return nil, fmt.Errorf("graphio: %d edge lines but problem line declared %d", edges, declared)
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return Unweighted(g), nil
}

// parseDIMACSProblem parses the trimmed problem line "p edge <n> <m>".
func parseDIMACSProblem(line string, lineNo int) (n int, m int64, err error) {
	fields := strings.Fields(line)
	if len(fields) != 4 || (fields[1] != "edge" && fields[1] != "col") {
		return 0, 0, fmt.Errorf("graphio: line %d: want 'p edge <n> <m>', got %q", lineNo, line)
	}
	if n, err = parseVertexCount(fields[2], lineNo); err != nil {
		return 0, 0, err
	}
	m, err = strconv.ParseInt(fields[3], 10, 64)
	if err != nil || m < 0 {
		return 0, 0, fmt.Errorf("graphio: line %d: bad edge count %q", lineNo, fields[3])
	}
	return n, m, nil
}

// dimacsLineErr rejects a trimmed line that may not come where it does
// before the problem line: an edge, or one starting with anything but
// c, p or e.
func dimacsLineErr(line string, lineNo int) error {
	if line[0] == 'e' {
		return fmt.Errorf("graphio: line %d: edge before problem line", lineNo)
	}
	return fmt.Errorf("graphio: line %d: unknown DIMACS line %q", lineNo, line)
}

func writeDIMACS(w io.Writer, g *graph.Graph) error {
	lw := newLineWriter(w)
	lw.buf = appendPair(append(lw.buf, "p edge "...), int64(g.NumVertices()), int64(g.NumEdges()))
	lw.endLine()
	g.ForEachEdge(func(u, v int32) {
		lw.buf = appendPair(append(lw.buf, "e "...), int64(u)+1, int64(v)+1)
		lw.endLine()
	})
	return lw.flush()
}
