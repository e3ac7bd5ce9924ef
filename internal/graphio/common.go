package graphio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"mpcgraph/internal/graph"
)

// maxLine bounds a single input line; adjacency formats (METIS) put a
// whole vertex neighborhood on one line, so the cap is generous.
const maxLine = 1 << 26

// MaxVertices caps declared or inferred vertex counts. Graph
// construction allocates O(n) memory even for an edgeless graph, so a
// tiny malicious file declaring n = 2^31 would otherwise force a
// multi-gigabyte allocation; 2^27 (~134M vertices) is far beyond any
// instance the simulators can process while keeping the worst-case
// header allocation around half a gigabyte.
const MaxVertices = 1 << 27

// newScanner returns a line scanner sized for graph files.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxLine)
	return sc
}

// parseVertex parses a vertex id with the given base (0 or 1) and range
// bound n (n < 0 means bounded only by MaxVertices), returning the
// 0-based id.
func parseVertex(tok string, base, n int, line int) (int32, error) {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil || v < int64(base) {
		return 0, fmt.Errorf("graphio: line %d: bad vertex %q", line, tok)
	}
	v -= int64(base)
	if v >= MaxVertices || (n >= 0 && v >= int64(n)) {
		return 0, fmt.Errorf("graphio: line %d: vertex %s out of range", line, tok)
	}
	return int32(v), nil
}

// parseVertexCount parses a declared vertex count against MaxVertices.
func parseVertexCount(tok string, line int) (int, error) {
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil || v < 0 || v > MaxVertices {
		return 0, fmt.Errorf("graphio: line %d: bad vertex count %q (limit %d)", line, tok, MaxVertices)
	}
	return int(v), nil
}

// parseWeight parses a positive finite edge weight.
func parseWeight(tok string, line int) (float64, error) {
	w, err := strconv.ParseFloat(tok, 64)
	if err != nil || !(w > 0) || w > 1e308 {
		return 0, fmt.Errorf("graphio: line %d: edge weight %q must be a positive finite number", line, tok)
	}
	return w, nil
}

// assembleWeighted builds a weighted Data from parallel edge and weight
// slices. Duplicate mentions of an edge are collapsed but must agree on
// the weight; a conflict is an input error, not a silent overwrite, and
// the error names the first conflicting mention in input order.
//
// It is a stable sort-merge over the builder's packed (u,v) keys: after
// the sort each edge's mentions form one run, in input order, and the
// runs come in edge-id order, so the first mention of the k-th run
// gives edge k its weight and the distinct keys are the builder's
// already-sorted input.
func assembleWeighted(n int, edges [][2]int32, weights []float64) (*Data, error) {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = graph.PackEdge(e[0], e[1])
	}
	perm := sortKeysStable(keys)
	w := make([]float64, 0, len(keys))
	bad := -1 // input position of the first conflicting mention
	var prev float64
	for k, key := range keys {
		i := k
		if perm != nil {
			i = int(perm[k])
		}
		if m := len(w); m > 0 && key == keys[m-1] {
			if weights[i] != w[m-1] && (bad < 0 || i < bad) {
				bad, prev = i, w[m-1]
			}
			continue
		}
		keys[len(w)] = key
		w = append(w, weights[i])
	}
	if bad >= 0 {
		return nil, fmt.Errorf("graphio: conflicting weights %v and %v for edge {%d,%d}",
			prev, weights[bad], edges[bad][0], edges[bad][1])
	}
	g, err := graph.FromPackedEdges(n, keys[:len(w)])
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	wg, err := graph.NewWeighted(g, w)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return FromWeighted(wg), nil
}

// sortKeysStable sorts keys ascending with an LSD radix sort, skipping
// the bytes every key shares, and returns perm: perm[k] is the input
// position of the key now at k, and equal keys keep their input order.
// Keys that are already sorted, as in every file graphio writes, stay
// put and perm is nil.
func sortKeysStable(keys []uint64) []int32 {
	if slices.IsSorted(keys) {
		return nil
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	src, srcPerm := keys, perm
	dst, dstPerm := make([]uint64, len(keys)), make([]int32, len(keys))
	for shift := 0; shift < 64; shift += 8 {
		if byte(or>>shift) == byte(and>>shift) {
			continue
		}
		var next [256]int
		for _, k := range src {
			next[byte(k>>shift)]++
		}
		pos := 0
		for d, c := range next {
			next[d], pos = pos, pos+c
		}
		for i, k := range src {
			d := byte(k >> shift)
			dst[next[d]], dstPerm[next[d]] = k, srcPerm[i]
			next[d]++
		}
		src, dst = dst, src
		srcPerm, dstPerm = dstPerm, srcPerm
	}
	copy(keys, src)
	return srcPerm
}

// forEachWeightedEdge calls fn for the undirected edges of wg with
// u < v in lexicographic order, with their weights. That is edge-id
// order, so the weights are read in sequence, with no index search.
func forEachWeightedEdge(wg *graph.Weighted, fn func(u, v int32, w float64)) {
	id := 0
	wg.ForEachEdge(func(u, v int32) {
		fn(u, v, wg.W[id])
		id++
	})
}

// writeFlush is the writers' flush threshold.
const writeFlush = 1 << 16

// lineWriter renders a file by appending into one reused buffer that
// goes out in writeFlush-sized chunks, in place of a fmt.Fprintf
// (reflection and interface allocations) per line. The first write
// error sticks: later chunks are dropped and flush returns it.
type lineWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newLineWriter(w io.Writer) *lineWriter {
	return &lineWriter{w: w, buf: make([]byte, 0, writeFlush+256)}
}

// endLine ends the current line and spills a full buffer.
func (lw *lineWriter) endLine() {
	lw.buf = append(lw.buf, '\n')
	lw.spill()
}

// spill writes the buffer out once it holds writeFlush bytes.
func (lw *lineWriter) spill() {
	if len(lw.buf) >= writeFlush {
		lw.write()
	}
}

// flush writes out what is left and reports the first write error.
func (lw *lineWriter) flush() error {
	if len(lw.buf) > 0 {
		lw.write()
	}
	return lw.err
}

func (lw *lineWriter) write() {
	if lw.err == nil {
		_, lw.err = lw.w.Write(lw.buf)
	}
	lw.buf = lw.buf[:0]
}

// appendPair appends "a b" to buf. The writers render through free
// functions on the slice, not lineWriter methods, which keeps the
// per-edge loop as fast as plain strconv appends.
func appendPair(buf []byte, a, b int64) []byte {
	buf = strconv.AppendInt(buf, a, 10)
	buf = append(buf, ' ')
	return strconv.AppendInt(buf, b, 10)
}

// appendWeight appends a space and w in the shortest form that parses
// back to the same float64, strconv.FormatFloat(w, 'g', -1, 64).
func appendWeight(buf []byte, w float64) []byte {
	return strconv.AppendFloat(append(buf, ' '), w, 'g', -1, 64)
}
