package matching

import (
	"reflect"
	"slices"
	"testing"

	"mpcgraph/internal/rng"
	"mpcgraph/internal/scenario"
)

// TestFreezeScheduleMatchesScan runs the freeze schedule beside a scan
// that weighs every vertex at every iteration, over random degrees,
// bases and neighbour-freeze sequences in both stage shapes, and checks
// that both freeze the same vertices, in the same order, in every
// iteration. The cases include equal threshold bounds (every vertex
// that reaches lo freezes at once, so a late bucket would show), deg = 0
// with base ≥ lo, vertices that never reach lo, and bases placed so a
// weight crosses lo exactly at some iteration.
func TestFreezeScheduleMatchesScan(t *testing.T) {
	r := rng.New(41)
	var fs freezeSchedule // reused across trials, as simState reuses it across stages
	var freezes, lateFreezes int
	for trial := 0; trial < 600; trial++ {
		eps := []float64{0.001, 0.02, 0.1, 0.25}[r.Intn(4)]
		direct := r.Intn(2) == 0
		lo, hi := 1-4*eps, 1-2*eps
		if r.Intn(4) == 0 {
			lo = hi // FixedThreshold
		}
		oracle := rng.NewThresholdOracle(r.Uint64(), lo, hi)
		n := 1 + r.Intn(80)
		iterations := 1 + r.Intn(60)
		t0 := r.Intn(50)

		// The stage's coef table, extended past its end so bases can put
		// a crossing beyond it: w_t in the direct stage, m·w_t in a phase.
		w0 := (1 - 2*eps) / 64
		m := 2 + r.Intn(8)
		table := make([]float64, 2*iterations)
		pow := 1.0
		for t := 0; t < t0+len(table); t++ {
			if t >= t0 {
				w := w0 * pow
				if direct {
					table[t-t0] = w
				} else {
					table[t-t0] = float64(m) * w
				}
			}
			pow /= 1 - eps
		}

		deg := make([]int32, n)
		base := make([]float64, n)
		for v := range deg {
			switch r.Intn(4) {
			case 0: // no active edge: hot throughout or dropped
				base[v] = lo + 0.02*(r.Float64()-0.5)
			case 1: // crosses lo at iteration j, nudged to either side
				deg[v] = int32(1 + r.Intn(40))
				j := r.Intn(len(table))
				base[v] = lo - table[j]*float64(deg[v])
				base[v] += float64(r.Intn(3)-1) * 1e-15
			case 2: // never reaches lo
				deg[v] = int32(1 + r.Intn(40))
				base[v] = 0.1 * r.Float64()
			default:
				deg[v] = int32(1 + r.Intn(40))
				base[v] = lo - 0.3*r.Float64()
			}
		}

		coef := fs.begin(iterations, lo, deg, base)
		copy(coef, table)
		for v := int32(0); v < int32(n); v++ {
			fs.add(v)
		}
		frozen := make([]bool, n)
		var want, got []int32
		for i := 0; i < iterations; i++ {
			want = want[:0]
			for v := int32(0); v < int32(n); v++ {
				if frozen[v] {
					continue
				}
				y := coef[i]*float64(deg[v]) + base[v]
				if y >= lo && y >= oracle.At(v, t0+i) {
					want = append(want, v)
				}
			}
			got = fs.freezing(i, t0+i, oracle, got[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d (eps %g, direct %v, lo == hi %v), iteration %d: schedule froze %v, scan froze %v",
					trial, eps, direct, lo == hi, i, got, want)
			}
			freezes += len(want)
			if i > 0 {
				lateFreezes += len(want)
			}
			// Each freeze retires edges to a few vertices, frozen or not:
			// the edge's weight joins base in the direct stage and drops
			// out of the local estimate in a phase.
			for _, v := range want {
				frozen[v] = true
			}
			for k := len(want) + r.Intn(3); k > 0; k-- {
				u := r.Intn(n)
				if deg[u] == 0 {
					continue
				}
				deg[u]--
				if direct {
					base[u] += coef[i]
				}
			}
		}
	}
	if freezes == 0 || lateFreezes == 0 {
		t.Fatalf("trials froze %d vertices, %d after the first iteration: too few to test the schedule", freezes, lateFreezes)
	}
}

// TestSimulateProbeMatchesSchedule: a DeviationProbe makes each phase
// weigh every vertex at every iteration instead of following the freeze
// schedule. Both must give the same fractional matching, phase
// statistics, stages and costs.
func TestSimulateProbeMatchesSchedule(t *testing.T) {
	for _, name := range []string{"gnp", "chung-lu", "bipartite"} {
		in, err := scenario.Generate(name, 1500, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			for _, e := range []float64{0.02, 0.1} {
				for _, workers := range []int{0, 1} {
					opts := SimOptions{Seed: seed, Eps: e, Workers: workers}
					plain, err := Simulate(in.G, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Probe = &DeviationProbe{}
					probed, err := Simulate(in.G, opts)
					if err != nil {
						t.Fatal(err)
					}
					if opts.Probe.Compared == 0 {
						t.Fatalf("%s seed %d eps %g: no phase ran the probe", name, seed, e)
					}
					if !reflect.DeepEqual(plain, probed) {
						t.Errorf("%s seed %d eps %g workers %d: the probe's scan and the schedule disagree", name, seed, e, workers)
					}
				}
			}
		}
	}
}
