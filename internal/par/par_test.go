package par

import (
	"reflect"
	"sync/atomic"
	"testing"

	"mpcgraph/internal/rng"
)

func TestResolve(t *testing.T) {
	if Resolve(1) != 1 || Resolve(-3) != 1 {
		t.Error("Resolve should clamp small values to 1")
	}
	if Resolve(0) < 1 {
		t.Error("Resolve(0) must select at least one worker")
	}
	if Resolve(7) != 7 {
		t.Error("Resolve should pass explicit counts through")
	}
}

func TestShardRangesPartition(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 1001} {
		for _, workers := range []int{1, 2, 3, 8, 200} {
			shards := ShardCount(workers, n)
			covered := 0
			prevHi := 0
			for w := 0; w < shards; w++ {
				lo, hi := shardRange(n, shards, w)
				if lo != prevHi {
					t.Fatalf("n=%d workers=%d shard %d starts at %d, want %d", n, workers, w, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("n=%d workers=%d shards cover %d", n, workers, covered)
			}
		}
	}
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	const n = 1 << 12
	for _, workers := range []int{1, 2, 5, 16} {
		visits := make([]int32, n)
		For(workers, n, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, v)
			}
		}
	}
}

func TestForSmallRangeRunsInline(t *testing.T) {
	calls := 0
	For(8, minParallel-1, func(lo, hi, w int) {
		calls++
		if lo != 0 || hi != minParallel-1 || w != 0 {
			t.Fatalf("inline call got (%d,%d,%d)", lo, hi, w)
		}
	})
	if calls != 1 {
		t.Fatalf("small range made %d calls, want 1", calls)
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	const n = 100000
	vals := make([]int64, n)
	src := rng.New(7)
	var want int64
	for i := range vals {
		vals[i] = int64(src.Intn(1000)) - 500
		want += vals[i]
	}
	for _, workers := range []int{1, 2, 3, 9} {
		got := Reduce(workers, n, func(lo, hi, _ int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b int64) int64 { return a + b })
		if got != want {
			t.Fatalf("workers=%d sum %d, want %d", workers, got, want)
		}
	}
}

func TestReduceMergesInShardOrder(t *testing.T) {
	const n = 4 * minParallel
	got := Reduce(4, n, func(lo, hi, w int) []int {
		return []int{w}
	}, func(a, b []int) []int { return append(a, b...) })
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("shard accumulators merged out of order: %v", got)
		}
	}
}

func TestCollectMatchesSequentialAppend(t *testing.T) {
	const n = 50000
	keep := func(i int) bool { return i%7 == 0 || i%11 == 3 }
	var want []int
	for i := 0; i < n; i++ {
		if keep(i) {
			want = append(want, i)
		}
	}
	for _, workers := range []int{1, 4, 13} {
		got := Collect(workers, n, func(lo, hi, _ int) []int {
			var out []int
			for i := lo; i < hi; i++ {
				if keep(i) {
					out = append(out, i)
				}
			}
			return out
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d Collect diverged from sequential append", workers)
		}
	}
}
