package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the tail metric may report. A
// fixed ladder keeps the reported percentile identical between two runs
// with the same op budget, so their tails compare like for like.
var tailLadder = []float64{99.9, 99.5, 99, 98, 97.5, 95, 90, 80, 75, 50}

// minBeyondTail is how many samples must lie beyond the tail percentile
// for it to be reported: fewer would make the tail one or two outliers.
const minBeyondTail = 10

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the 0-based index of the nearest-rank q-th percentile
// (0 < q <= 100) of n sorted samples: the smallest sample with at least
// q% of the samples at or below it.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q/100*float64(n))) - 1
	return max(0, min(n-1, i))
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// tail is the tail-latency summary: the highest ladder percentile with
// at least minBeyondTail samples strictly above its rank.
type tail struct {
	Pct    float64 // the chosen percentile, e.g. 95
	Value  float64 // the sample at that rank
	N      int     // samples in the distribution
	Beyond int     // samples ranked above it
}

// tailOf picks the tail percentile of xs. With too few samples for any
// ladder rung it falls back to the median and reports how many lie
// beyond it, so the caller can still print an honest sample count.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		i := rankIndex(n, q)
		if beyond := n - 1 - i; beyond >= minBeyondTail {
			return tail{Pct: q, Value: s[i], N: n, Beyond: beyond}
		}
	}
	i := rankIndex(n, 50)
	return tail{Pct: 50, Value: s[i], N: n, Beyond: n - 1 - i}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// kibToMiB converts kibibytes (ru_maxrss, VmHWM) to mebibytes.
func kibToMiB(kib int64) float64 { return float64(kib) / 1024 }

// bytesToMiB converts bytes to mebibytes.
func bytesToMiB(b float64) float64 { return b / (1 << 20) }
