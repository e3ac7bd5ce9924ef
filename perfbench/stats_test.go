package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		// 280 ops: p97.5 leaves 7 beyond, p95 is rank 266 with 14 beyond.
		{280, 95, 266, 14},
		// 140 ops: p95 leaves 7 beyond, p90 is rank 126 with 14 beyond.
		{140, 90, 126, 14},
		// 780 ops: p99 leaves 7, p98 is rank 765 with 15 beyond.
		{780, 98, 765, 15},
		// 1000 ops: p99 is rank 990 with exactly 10 beyond.
		{1000, 99, 990, 10},
		// 24 ops: only the median leaves ten beyond.
		{24, 50, 12, 12},
		// 15 ops: no rung leaves ten; the median is reported with its
		// true count beyond.
		{15, 50, 8, 7},
	} {
		got := tailOf(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.N != tc.n || got.Beyond != tc.beyond {
			t.Errorf("n=%d: tail = %+v, want p%g = %g with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
	}
	if got := tailOf(nil); !math.IsNaN(got.Value) {
		t.Errorf("empty tail = %v, want NaN", got.Value)
	}
}

func TestRankIndexAndMedian(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{{5, 50, 2}, {5, 100, 4}, {5, 1, 0}, {4, 50, 1}, {280, 95, 265}} {
		if got := rankIndex(tc.n, tc.q); got != tc.want {
			t.Errorf("rankIndex(%d, %g) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestUnitConversions(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"ms", ms(1500 * time.Microsecond), 1.5},
		{"us", us(2500 * time.Nanosecond), 2.5},
		{"KiB to MiB", kibToMiB(1536), 1.5},
		{"bytes to MiB", bytesToMiB(3 << 19), 1.5},
		{"ticks to s", ticksToDuration(250).Seconds(), 2.5},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestEndToEndArithmetic(t *testing.T) {
	o := &outcome{
		SetupRuns:  []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		Lat:        []float64{10, 30, 20, 40},
		Ops:        5, // one failed
		Attempted:  5,
		Failed:     1,
		Wall:       2 * time.Second,
		CPU:        500 * time.Millisecond,
		PeakRSSMiB: 64,
	}
	e := endToEnd(o)
	for name, want := range map[string]float64{
		"setup_s":       2,   // median set-up
		"ops_per_s":     2,   // 4 completed ops / 2 s
		"op_p50_ms":     25,  // median of 10..40
		"op_tail_ms":    20,  // too few ops: the median rank
		"cpu_ms_per_op": 100, // 500 ms over 5 attempted ops
		"peak_rss_mib":  64,
	} {
		if e[name] != want {
			t.Errorf("%s = %v, want %v", name, e[name], want)
		}
	}
}

func TestSubSeedIsStableAndSpreads(t *testing.T) {
	if subSeed(1, "a", 0) != subSeed(1, "a", 0) {
		t.Fatal("subSeed is not a function of its inputs")
	}
	seen := map[uint64]bool{}
	for _, label := range []string{"a", "b"} {
		for seed := uint64(1); seed <= 3; seed++ {
			for i := 0; i < 100; i++ {
				s := subSeed(seed, label, i)
				if seen[s] || s >= 1<<53 {
					t.Fatalf("subSeed(%d, %q, %d) = %d repeats or exceeds 2^53", seed, label, i, s)
				}
				seen[s] = true
			}
		}
	}
}
