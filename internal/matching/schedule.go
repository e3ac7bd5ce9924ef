package matching

import (
	"slices"

	"mpcgraph/internal/rng"
)

// freezeSchedule yields the vertices that freeze in each iteration of a
// stage of the simulation — the local iterations of a phase, or the
// direct stage — while weighing only the vertices that can freeze then.
//
// In a stage, vertex v weighs y(v, i) = coef[i]·deg[v] + base[v] at the
// stage's i-th iteration: coef = w_t, deg = active degree and base =
// frozen weight in the direct stage; coef = m·w_t, deg = local degree
// and base = y_old in a phase. No threshold is below lo, so a vertex
// with y < lo cannot freeze. A vertex with y ≥ lo is hot, and is tested
// against its threshold every iteration. Every other vertex waits in the
// bucket of the first iteration at which its weight, at its current deg
// and base, reaches lo, or is dropped if the stage ends first. coef only
// grows, so that iteration is found by a binary search over coef.
//
// Invariant: in every iteration, each vertex of the stage whose weight
// reaches lo is hot or waits in that iteration's bucket. Between
// iterations a vertex's deg and base change only when a neighbour
// freezes, and such a freeze lowers its weight at every later
// iteration: in the direct stage the frozen edge stops growing, which
// costs at least ε·w₀ by the next iteration; in a phase its local weight
// m·w_t drops out, at least m·w₀. Both exceed 2·10⁻¹³ for n < 2³¹ and
// ε ≥ 0.001, hundreds of times the rounding error of one multiply-add
// near 1, so a weight computed below lo stays below lo after the freeze
// and a bucket is never late. Freezes therefore refile no neighbour: a
// vertex is weighed again when its bucket comes due, and it then turns
// hot or is filed anew. A hot vertex a freeze took below lo is filed
// anew the next time it is weighed.
type freezeSchedule struct {
	lo   float64   // the lowest threshold
	coef []float64 // coef[i]: the weight per unit of deg at iteration i
	deg  []int32
	base []float64

	head []int32 // head[i]: the first vertex waiting for iteration i, -1 if none
	next []int32 // next[v]: the vertex after v in its bucket, -1 at the end
	hot  []int32 // the hot vertices, in vertex order
}

// begin starts a stage of the given number of iterations, in which
// weights are formed from deg and base, and returns its coef table for
// the caller to fill. The caller then adds the stage's vertices in
// vertex order and updates deg and base after each iteration's freezes.
func (fs *freezeSchedule) begin(iterations int, lo float64, deg []int32, base []float64) []float64 {
	fs.lo, fs.deg, fs.base = lo, deg, base
	fs.coef = slices.Grow(fs.coef[:0], iterations)[:iterations]
	fs.head = slices.Grow(fs.head[:0], iterations)[:iterations]
	for i := range fs.head {
		fs.head[i] = -1
	}
	if len(fs.next) < len(deg) {
		fs.next = make([]int32, len(deg))
	}
	fs.hot = fs.hot[:0]
	return fs.coef
}

// y is v's weight at iteration i, formed exactly as a scan of every
// vertex forms it, so both compare the same bits against the thresholds.
func (fs *freezeSchedule) y(v int32, i int) float64 {
	return fs.coef[i]*float64(fs.deg[v]) + fs.base[v]
}

// add enters v into the stage at its first iteration.
func (fs *freezeSchedule) add(v int32) {
	switch {
	case fs.y(v, len(fs.coef)-1) < fs.lo:
		// v cannot reach lo in this stage (which covers deg = 0).
	case fs.y(v, 0) >= fs.lo:
		fs.hot = append(fs.hot, v)
	default:
		fs.wait(v, 1)
	}
}

// file puts v, whose weight at iteration i is below lo, in the bucket
// of the first later iteration at which its weight reaches lo, or drops
// it when there is none.
func (fs *freezeSchedule) file(v int32, i int) {
	if fs.y(v, len(fs.coef)-1) >= fs.lo {
		fs.wait(v, i+1)
	}
}

// wait puts v in the bucket of the first iteration from i on at which
// its weight reaches lo. Its weight at the last iteration does.
func (fs *freezeSchedule) wait(v int32, i int) {
	a, b := i, len(fs.coef)-1
	for a < b {
		mid := int(uint(a+b) >> 1)
		if fs.y(v, mid) >= fs.lo {
			b = mid
		} else {
			a = mid + 1
		}
	}
	fs.next[v] = fs.head[a]
	fs.head[a] = v
}

// freezing appends to out, in vertex order, the vertices that freeze in
// the stage's iteration i, which is global iteration t: it weighs the
// vertices of bucket i and then tests every hot vertex with the
// predicate of a full scan.
func (fs *freezeSchedule) freezing(i, t int, oracle rng.ThresholdOracle, out []int32) []int32 {
	hot := len(fs.hot)
	for v := fs.head[i]; v >= 0; {
		next := fs.next[v]
		if fs.y(v, i) >= fs.lo {
			fs.hot = append(fs.hot, v)
		} else {
			fs.file(v, i)
		}
		v = next
	}
	if len(fs.hot) > hot {
		slices.Sort(fs.hot)
	}

	kept := fs.hot[:0]
	for _, v := range fs.hot {
		y := fs.y(v, i)
		switch {
		case y >= fs.lo && y >= oracle.At(v, t):
			out = append(out, v)
		case y < fs.lo:
			fs.file(v, i)
		default:
			kept = append(kept, v)
		}
	}
	fs.hot = kept
	return out
}
