// Package graph provides the static graph representation, random graph
// generators, and structural validators shared by every algorithm in the
// reproduction.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected,
// matching the model of the paper. Vertices are identified by dense int32
// indices in [0, n). The core representation is CSR (compressed sparse
// row): an offsets array plus a flattened, per-vertex-sorted adjacency
// array, which gives cache-friendly iteration and O(log deg) edge lookup
// while keeping memory at 2m+n+O(1) words.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"mpcgraph/internal/par"
)

// Graph is an immutable simple undirected graph in CSR form.
// The zero value is the empty graph on zero vertices.
type Graph struct {
	n       int
	m       int
	offsets []int32 // length n+1; neighbors of v are adj[offsets[v]:offsets[v+1]]
	adj     []int32 // length 2m; each undirected edge appears twice, lists sorted

	// maxDeg caches MaxDegree()+1; 0 means not yet computed. Atomic so
	// concurrent readers (the parallel execution engine) stay race-free.
	maxDeg atomic.Int64
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge. Runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// MaxDegree returns the maximum vertex degree, or 0 on the empty graph.
// The value is computed lazily once and cached; the graph is immutable,
// so repeated calls (String, LineGraph, every MIS phase schedule) cost
// one atomic load.
func (g *Graph) MaxDegree() int {
	if c := g.maxDeg.Load(); c > 0 {
		return int(c - 1)
	}
	max := 0
	for v := int32(0); v < int32(g.n); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	g.maxDeg.Store(int64(max) + 1)
	return max
}

// AvgDegree returns the average vertex degree 2m/n, or 0 when n = 0.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// ForEachEdge calls fn once per undirected edge with u < v. Each sorted
// neighbor list is entered at its first neighbor greater than u (a
// binary search), so the walk touches each edge once instead of
// filtering all 2m adjacency entries.
func (g *Graph) ForEachEdge(fn func(u, v int32)) {
	for u := int32(0); u < int32(g.n); u++ {
		nb := g.Neighbors(u)
		i := sort.Search(len(nb), func(i int) bool { return nb[i] > u })
		for _, v := range nb[i:] {
			fn(u, v)
		}
	}
}

// EdgeList materializes all undirected edges with u < v, in lexicographic
// order. The result has length NumEdges and is written in one exact-size
// pass — no append growth, no per-vertex allocation.
func (g *Graph) EdgeList() [][2]int32 {
	edges := make([][2]int32, g.m)
	k := 0
	for u := int32(0); u < int32(g.n); u++ {
		nb := g.Neighbors(u)
		i := sort.Search(len(nb), func(i int) bool { return nb[i] > u })
		for _, v := range nb[i:] {
			edges[k] = [2]int32{u, v}
			k++
		}
	}
	return edges
}

// EdgeIndex assigns each undirected edge {u,v}, u < v, a dense id in
// [0, m) in lexicographic order, and provides O(log deg) lookup. It is the
// indexing of the per-edge weights of a weighted graph (Weighted.W).
type EdgeIndex struct {
	g     *Graph
	start []int32 // start[u] = id of the first edge whose smaller endpoint is u
}

// NewEdgeIndex builds the edge index for g in O(n + m) on all cores;
// NewEdgeIndexWorkers takes an explicit worker count.
func NewEdgeIndex(g *Graph) *EdgeIndex {
	return NewEdgeIndexWorkers(g, 0)
}

// NewEdgeIndexWorkers is NewEdgeIndex with an explicit Workers knob
// (0 = all cores, 1 = sequential).
func NewEdgeIndexWorkers(g *Graph, workers int) *EdgeIndex {
	start := make([]int32, g.n+1)
	par.For(workers, g.n, func(lo, hi, _ int) {
		for u := int32(lo); u < int32(hi); u++ {
			nb := g.Neighbors(u)
			// Neighbors are sorted, so the ones greater than u form a suffix.
			i := sort.Search(len(nb), func(i int) bool { return nb[i] > u })
			start[u+1] = int32(len(nb) - i)
		}
	})
	for u := 0; u < g.n; u++ {
		start[u+1] += start[u]
	}
	return &EdgeIndex{g: g, start: start}
}

// ID returns the dense id of edge {u, v}. It panics if the edge does not
// exist, which indicates a logic error in the caller.
func (ix *EdgeIndex) ID(u, v int32) int32 {
	if u > v {
		u, v = v, u
	}
	pos, id := ix.upper(u)
	suffix := ix.g.Neighbors(u)[pos:]
	j := sort.Search(len(suffix), func(j int) bool { return suffix[j] >= v })
	if j == len(suffix) || suffix[j] != v {
		panic(fmt.Sprintf("graph: edge {%d,%d} not present", u, v))
	}
	return id + int32(j)
}

// upper returns the position pos in Neighbors(u) of u's first neighbour
// greater than u, and the id of that edge. The edges {u, v} with v > u
// have consecutive ids in neighbour order: the neighbour at position
// k ≥ pos has id id+(k-pos), so a scan of u's list needs no search for
// them. Those edges are the last start[u+1]-start[u] of the list, so
// pos takes no search either.
func (ix *EdgeIndex) upper(u int32) (pos int, id int32) {
	return ix.g.Degree(u) - int(ix.start[u+1]-ix.start[u]), ix.start[u]
}

// Endpoints returns the endpoints (u < v) of the edge with the given id.
func (ix *EdgeIndex) Endpoints(id int32) (u, v int32) {
	// Binary search over start for the owning vertex.
	lo, hi := 0, ix.g.n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ix.start[mid] <= id {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	u = int32(lo)
	pos, first := ix.upper(u)
	return u, ix.g.Neighbors(u)[pos+int(id-first)]
}

// NumEdges returns the number of indexed edges.
func (ix *EdgeIndex) NumEdges() int { return int(ix.start[ix.g.n]) }

// Subgraph returns the subgraph on the same vertex set containing exactly
// the edges with both endpoints marked in keep. Vertices outside keep
// become isolated; vertex ids are preserved. This is the "remove vertices,
// keep the id space" operation the greedy MIS simulation relies on.
// It runs on all cores; SubgraphWorkers takes an explicit worker count.
func (g *Graph) Subgraph(keep []bool) *Graph {
	return g.SubgraphWorkers(keep, 0)
}

// SubgraphWorkers is Subgraph with an explicit Workers knob (0 = all
// cores, 1 = sequential). The result is bit-identical for every worker
// count: the CSR arrays are built count-then-fill, with each vertex's
// slot range computed before any adjacency is written.
func (g *Graph) SubgraphWorkers(keep []bool, workers int) *Graph {
	if len(keep) != g.n {
		panic("graph: Subgraph mask has wrong length")
	}
	offsets := make([]int32, g.n+1)
	par.For(workers, g.n, func(lo, hi, _ int) {
		for u := int32(lo); u < int32(hi); u++ {
			cnt := int32(0)
			if keep[u] {
				for _, v := range g.Neighbors(u) {
					if keep[v] {
						cnt++
					}
				}
			}
			offsets[u+1] = cnt
		}
	})
	for u := 0; u < g.n; u++ {
		offsets[u+1] += offsets[u]
	}
	adj := make([]int32, offsets[g.n])
	par.For(workers, g.n, func(lo, hi, _ int) {
		for u := int32(lo); u < int32(hi); u++ {
			if !keep[u] {
				continue
			}
			w := offsets[u]
			for _, v := range g.Neighbors(u) {
				if keep[v] {
					adj[w] = v
					w++
				}
			}
		}
	})
	return &Graph{n: g.n, m: int(offsets[g.n]) / 2, offsets: offsets, adj: adj}
}

// CompactInduced returns the induced subgraph on the given vertices with a
// fresh dense id space, plus the mapping from new ids back to original
// ids. Vertices must be distinct and in range. It runs on all cores;
// CompactInducedWorkers takes an explicit worker count.
func (g *Graph) CompactInduced(vertices []int32) (*Graph, []int32) {
	return g.CompactInducedWorkers(vertices, 0)
}

// CompactInducedWorkers is CompactInduced with an explicit Workers knob
// (0 = all cores, 1 = sequential). The CSR is built directly with
// count-then-fill instead of going through a Builder edge sort, so the
// cost is O(n + m·log(maxdeg)) and the output is bit-identical for
// every worker count.
func (g *Graph) CompactInducedWorkers(vertices []int32, workers int) (*Graph, []int32) {
	inv := make([]int32, g.n)
	par.For(workers, g.n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			inv[i] = -1
		}
	})
	orig := make([]int32, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= g.n {
			panic(fmt.Sprintf("graph: vertex %d out of range", v))
		}
		if inv[v] != -1 {
			panic(fmt.Sprintf("graph: duplicate vertex %d", v))
		}
		inv[v] = int32(i)
		orig[i] = v
	}
	k := len(vertices)
	offsets := make([]int32, k+1)
	par.For(workers, k, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			cnt := int32(0)
			for _, w := range g.Neighbors(orig[i]) {
				if inv[w] >= 0 {
					cnt++
				}
			}
			offsets[i+1] = cnt
		}
	})
	for i := 0; i < k; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]int32, offsets[k])
	par.For(workers, k, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			pos := offsets[i]
			for _, w := range g.Neighbors(orig[i]) {
				if j := inv[w]; j >= 0 {
					adj[pos] = j
					pos++
				}
			}
			// The original neighbor order follows original ids; the new
			// ids follow the order of the vertices argument, so each list
			// must be re-sorted.
			slices.Sort(adj[offsets[i]:pos])
		}
	})
	return &Graph{n: k, m: int(offsets[k]) / 2, offsets: offsets, adj: adj}, orig
}

// LineGraph returns the line graph L(G): one vertex per edge of g, with
// two line-graph vertices adjacent when the underlying edges share an
// endpoint. The edge ids follow NewEdgeIndex(g). This is the classical
// reduction (Luby on L(G) yields a maximal matching of G) discussed in
// the paper's introduction. It runs on all cores; LineGraphWorkers takes
// an explicit worker count.
func (g *Graph) LineGraph() (*Graph, *EdgeIndex) {
	return g.LineGraphWorkers(0)
}

// LineGraphWorkers is LineGraph with an explicit Workers knob (0 = all
// cores, 1 = sequential). Since two distinct edges of a simple graph
// share at most one endpoint, the L(G) degree of edge {u,v} is exactly
// deg(u)+deg(v)-2 and the CSR can be built count-then-fill with no
// deduplication; the output is bit-identical for every worker count.
func (g *Graph) LineGraphWorkers(workers int) (*Graph, *EdgeIndex) {
	ix := NewEdgeIndexWorkers(g, workers)
	mL := g.m // vertices of L(G)
	ends := make([][2]int32, mL)
	offsets := make([]int32, mL+1)
	par.For(workers, g.n, func(lo, hi, _ int) {
		for u := int32(lo); u < int32(hi); u++ {
			nb := g.Neighbors(u)
			i := sort.Search(len(nb), func(i int) bool { return nb[i] > u })
			for j := i; j < len(nb); j++ {
				id := ix.start[u] + int32(j-i)
				v := nb[j]
				ends[id] = [2]int32{u, v}
				offsets[id+1] = int32(g.Degree(u) + g.Degree(v) - 2)
			}
		}
	})
	for e := 0; e < mL; e++ {
		offsets[e+1] += offsets[e]
	}
	adj := make([]int32, offsets[mL])
	par.For(workers, mL, func(lo, hi, _ int) {
		for e := int32(lo); e < int32(hi); e++ {
			u, v := ends[e][0], ends[e][1]
			pos := offsets[e]
			for _, w := range g.Neighbors(u) {
				if w != v {
					adj[pos] = ix.ID(u, w)
					pos++
				}
			}
			for _, w := range g.Neighbors(v) {
				if w != u {
					adj[pos] = ix.ID(v, w)
					pos++
				}
			}
			slices.Sort(adj[offsets[e]:pos])
		}
	})
	return &Graph{n: mL, m: int(offsets[mL]) / 2, offsets: offsets, adj: adj}, ix
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	offsets := make([]int32, len(g.offsets))
	copy(offsets, g.offsets)
	adj := make([]int32, len(g.adj))
	copy(adj, g.adj)
	c := &Graph{n: g.n, m: g.m, offsets: offsets, adj: adj}
	c.maxDeg.Store(g.maxDeg.Load())
	return c
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, maxdeg=%d)", g.n, g.m, g.MaxDegree())
}
