package graph

// This file contains the structural predicates used to check algorithm
// outputs. Every algorithm test and experiment validates its output
// through these, and so do `mpcgraph solve` and mpcgraphd, which checks
// every result it computes before caching it (registry.Validate). Each
// predicate therefore makes a single pass over the adjacency lists.

// IsIndependentSet reports whether no two marked vertices are adjacent:
// no marked vertex has a marked neighbour.
func IsIndependentSet(g *Graph, in []bool) bool {
	if len(in) != g.NumVertices() {
		return false
	}
	return !anyEdgeWithin(g, in, true)
}

// anyEdgeWithin reports whether some edge has both endpoints marked
// with mark, scanning the lists of those vertices only.
func anyEdgeWithin(g *Graph, set []bool, mark bool) bool {
	for v, b := range set {
		if b != mark {
			continue
		}
		for _, u := range g.Neighbors(int32(v)) {
			if set[u] == mark {
				return true
			}
		}
	}
	return false
}

// IsMaximalIndependentSet reports whether the marked set is independent
// and every unmarked vertex has a marked neighbor. One pass over the
// adjacency lists checks both: a marked vertex may have no marked
// neighbor, an unmarked one needs one.
func IsMaximalIndependentSet(g *Graph, in []bool) bool {
	if len(in) != g.NumVertices() {
		return false
	}
	for v := range in {
		markedNeighbor := false
		for _, u := range g.Neighbors(int32(v)) {
			if in[u] {
				markedNeighbor = true
				break
			}
		}
		if markedNeighbor == in[v] {
			return false
		}
	}
	return true
}

// Matching is the standard mate-array encoding: mate[v] is the matched
// partner of v, or -1 when v is free.
type Matching []int32

// NewMatching returns an empty matching on n vertices.
func NewMatching(n int) Matching {
	m := make(Matching, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

// Size returns the number of matched edges.
func (m Matching) Size() int {
	cnt := 0
	for v, u := range m {
		if u >= 0 && int32(v) < u {
			cnt++
		}
	}
	return cnt
}

// Edges returns the matched edges with u < v.
func (m Matching) Edges() [][2]int32 {
	out := make([][2]int32, 0, m.Size())
	for v, u := range m {
		if u >= 0 && int32(v) < u {
			out = append(out, [2]int32{int32(v), u})
		}
	}
	return out
}

// Match records the edge {u, v} in the matching. It panics if either
// endpoint is already matched, which indicates a caller bug.
func (m Matching) Match(u, v int32) {
	if m[u] != -1 || m[v] != -1 {
		panic("graph: Match on already-matched vertex")
	}
	m[u], m[v] = v, u
}

// Unmatch removes the edge covering u (and its mate).
func (m Matching) Unmatch(u int32) {
	if v := m[u]; v != -1 {
		m[u], m[v] = -1, -1
	}
}

// Clone returns a deep copy.
func (m Matching) Clone() Matching {
	c := make(Matching, len(m))
	copy(c, m)
	return c
}

// IsMatching reports whether m is a consistent matching whose edges all
// exist in g.
func IsMatching(g *Graph, m Matching) bool {
	if len(m) != g.NumVertices() {
		return false
	}
	for v, u := range m {
		if u != -1 && !consistentMate(g, m, int32(v)) {
			return false
		}
	}
	return true
}

// consistentMate reports whether v's mate u = m[v] is another vertex of
// g whose mate is v, and, checked once per pair at its smaller end,
// adjacent to v.
func consistentMate(g *Graph, m Matching, v int32) bool {
	u := m[v]
	if u < 0 || int(u) >= len(m) || m[u] != v || u == v {
		return false
	}
	return v > u || g.HasEdge(v, u)
}

// IsMaximalMatching reports whether m is a matching of g and no edge of g
// has both endpoints free. One pass over the vertices checks both: a
// matched vertex's mate must be consistent and adjacent, and a free
// vertex may have no free neighbor.
func IsMaximalMatching(g *Graph, m Matching) bool {
	if len(m) != g.NumVertices() {
		return false
	}
	for v, u := range m {
		if u != -1 {
			if !consistentMate(g, m, int32(v)) {
				return false
			}
			continue
		}
		for _, w := range g.Neighbors(int32(v)) {
			if m[w] == -1 {
				return false
			}
		}
	}
	return true
}

// IsVertexCover reports whether every edge has a marked endpoint: no
// unmarked vertex has an unmarked neighbour.
func IsVertexCover(g *Graph, cover []bool) bool {
	if len(cover) != g.NumVertices() {
		return false
	}
	return !anyEdgeWithin(g, cover, false)
}

// CountMarked returns the number of true entries; shared helper for set
// sizes.
func CountMarked(set []bool) int {
	cnt := 0
	for _, b := range set {
		if b {
			cnt++
		}
	}
	return cnt
}

// FractionalMatching is a per-edge weight vector indexed by an EdgeIndex.
type FractionalMatching struct {
	Index *EdgeIndex
	X     []float64
}

// NewFractionalMatching returns the all-zero fractional matching on g's
// edge index.
func NewFractionalMatching(ix *EdgeIndex) *FractionalMatching {
	return &FractionalMatching{Index: ix, X: make([]float64, ix.NumEdges())}
}

// VertexWeights returns y_v = sum of x_e over edges incident to v.
func (f *FractionalMatching) VertexWeights() []float64 {
	y := make([]float64, f.Index.g.NumVertices())
	for id, x := range f.X {
		if x == 0 {
			continue
		}
		u, v := f.Index.Endpoints(int32(id))
		y[u] += x
		y[v] += x
	}
	return y
}

// Weight returns the total weight sum_e x_e.
func (f *FractionalMatching) Weight() float64 {
	w := 0.0
	for _, x := range f.X {
		w += x
	}
	return w
}

// IsFeasible reports whether all x_e are in [0, 1] and every vertex weight
// satisfies y_v <= 1 + tol.
func (f *FractionalMatching) IsFeasible(tol float64) bool {
	for _, x := range f.X {
		if x < 0 || x > 1+tol {
			return false
		}
	}
	for _, y := range f.VertexWeights() {
		if y > 1+tol {
			return false
		}
	}
	return true
}
