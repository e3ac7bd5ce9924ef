package graph

import (
	"fmt"
	"sort"
	"testing"

	"mpcgraph/internal/par"
	"mpcgraph/internal/rng"
)

// referenceBuild is the pre-radix builder (stable comparison sort,
// sharded counting fill, per-vertex sort fixup), kept as the parity
// oracle: the radix builder must reproduce its CSR bytes exactly, for
// every worker count. sort.SliceStable yields exactly what the
// pre-radix parallel merge sort yielded at every worker count.
func referenceBuild(n int, edges [][2]int32, workers int) (*Graph, error) {
	if n == 0 && len(edges) > 0 {
		return nil, fmt.Errorf("graph: edges on zero vertices")
	}
	norm := make([][2]int32, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		norm[i] = [2]int32{u, v}
	}
	sort.SliceStable(norm, func(i, j int) bool {
		if norm[i][0] != norm[j][0] {
			return norm[i][0] < norm[j][0]
		}
		return norm[i][1] < norm[j][1]
	})
	dedup := norm[:0]
	for i, e := range norm {
		if i == 0 || e != norm[i-1] {
			dedup = append(dedup, e)
		}
	}
	norm = dedup

	m := len(norm)
	shards := par.ShardCount(workers, m)
	counts := make([][]int32, shards)
	for w := range counts {
		counts[w] = make([]int32, n)
	}
	par.For(workers, m, func(lo, hi, w int) {
		c := counts[w]
		for _, e := range norm[lo:hi] {
			c[e[0]]++
			c[e[1]]++
		}
	})
	offsets := make([]int32, n+1)
	cursors := make([][]int32, shards)
	for w := range cursors {
		cursors[w] = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		deg := int32(0)
		for w := 0; w < shards; w++ {
			cursors[w][v] = deg
			deg += counts[w][v]
		}
		offsets[v+1] = offsets[v] + deg
	}
	adj := make([]int32, 2*m)
	par.For(workers, m, func(lo, hi, w int) {
		cur := cursors[w]
		for _, e := range norm[lo:hi] {
			u, v := e[0], e[1]
			adj[offsets[u]+cur[u]] = v
			cur[u]++
			adj[offsets[v]+cur[v]] = u
			cur[v]++
		}
	})
	g := &Graph{n: n, m: m, offsets: offsets, adj: adj}
	par.For(workers, n, func(lo, hi, _ int) {
		for v := lo; v < hi; v++ {
			nb := g.adj[g.offsets[v]:g.offsets[v+1]]
			sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		}
	})
	return g, nil
}

// csrEqual asserts two graphs have byte-identical CSR arrays.
func csrEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.n != got.n || want.m != got.m {
		t.Fatalf("shape mismatch: want n=%d m=%d, got n=%d m=%d", want.n, want.m, got.n, got.m)
	}
	for i := range want.offsets {
		if want.offsets[i] != got.offsets[i] {
			t.Fatalf("offsets[%d]: want %d, got %d", i, want.offsets[i], got.offsets[i])
		}
	}
	for i := range want.adj {
		if want.adj[i] != got.adj[i] {
			t.Fatalf("adj[%d]: want %d, got %d", i, want.adj[i], got.adj[i])
		}
	}
}

// parityEdgeSets enumerates adversarial edge multisets: empty, single,
// heavy duplication, stars (skewed degree), reversed insertion order,
// dense blocks, and random multigraphs big enough to cross both the
// radix threshold and par's minParallel.
func parityEdgeSets() map[string]struct {
	n     int
	edges [][2]int32
} {
	sets := map[string]struct {
		n     int
		edges [][2]int32
	}{}
	add := func(name string, n int, edges [][2]int32) {
		sets[name] = struct {
			n     int
			edges [][2]int32
		}{n, edges}
	}
	add("empty", 0, nil)
	add("isolated", 17, nil)
	add("single", 2, [][2]int32{{1, 0}})
	add("triangle-dup", 3, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {1, 0}, {0, 2}, {0, 1}})

	star := make([][2]int32, 0, 4096)
	for i := int32(1); i < 2049; i++ {
		star = append(star, [2]int32{i, 0}, [2]int32{0, i})
	}
	add("star-dup", 2049, star)

	var block [][2]int32
	for u := int32(0); u < 64; u++ {
		for v := u + 1; v < 64; v++ {
			block = append(block, [2]int32{v, u})
		}
	}
	add("dense-block-reversed", 64, block)

	src := rng.New(42)
	rand := make([][2]int32, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		u := int32(src.Uint64() % 1500)
		v := int32(src.Uint64() % 1500)
		if u == v {
			v = (v + 1) % 1500
		}
		rand = append(rand, [2]int32{u, v})
	}
	add("random-multigraph", 1500, rand)

	// Vertex ids above 2^16 make the third byte of both packed halves
	// informative, exercising the higher radix digits.
	big := make([][2]int32, 0, 4096)
	for i := 0; i < 4096; i++ {
		u := int32(src.Uint64() % (1 << 22))
		v := int32(src.Uint64() % (1 << 22))
		if u == v {
			continue
		}
		big = append(big, [2]int32{u, v})
	}
	add("sparse-huge-ids", 1<<22, big)
	return sets
}

// TestBuilderRadixParity pins the radix builder against the pre-radix
// reference for every worker setting on every adversarial edge set.
func TestBuilderRadixParity(t *testing.T) {
	for name, tc := range parityEdgeSets() {
		for _, workers := range []int{1, 4, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				want, err := referenceBuild(tc.n, tc.edges, workers)
				if err != nil {
					t.Fatal(err)
				}
				b := NewBuilderCap(tc.n, len(tc.edges))
				for _, e := range tc.edges {
					b.AddEdge(e[0], e[1])
				}
				got, err := b.BuildWorkers(workers)
				if err != nil {
					t.Fatal(err)
				}
				csrEqual(t, want, got)
			})
		}
	}
}

// TestBuilderWorkersInvariant cross-checks the radix builder against
// itself: every worker count (sequential, forced multi-shard, all
// cores) must emit byte-identical CSR.
func TestBuilderWorkersInvariant(t *testing.T) {
	for name, tc := range parityEdgeSets() {
		t.Run(name, func(t *testing.T) {
			build := func(workers int) *Graph {
				b := NewBuilderCap(tc.n, len(tc.edges))
				b.AddEdges(tc.edges)
				g, err := b.BuildWorkers(workers)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			want := build(1)
			csrEqual(t, want, build(4))
			csrEqual(t, want, build(0))
		})
	}
}

// TestBuilderBulkPaths pins AddEdges and FromPackedEdges against the
// incremental AddEdge path.
func TestBuilderBulkPaths(t *testing.T) {
	for name, tc := range parityEdgeSets() {
		t.Run(name, func(t *testing.T) {
			inc := NewBuilder(tc.n)
			for _, e := range tc.edges {
				inc.AddEdge(e[0], e[1])
			}
			want, err := inc.Build()
			if err != nil {
				t.Fatal(err)
			}

			bulk := NewBuilderCap(tc.n, len(tc.edges))
			bulk.AddEdges(tc.edges)
			got, err := bulk.Build()
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, want, got)

			keys := make([]uint64, 0, len(tc.edges))
			for _, e := range tc.edges {
				keys = append(keys, PackEdge(e[0], e[1]))
			}
			packed, err := FromPackedEdges(tc.n, keys)
			if err != nil {
				t.Fatal(err)
			}
			csrEqual(t, want, packed)
		})
	}
}
