// Package par is the deterministic parallel execution engine shared by
// the simulators and the graph layer. The paper's models are
// bulk-synchronous: within a round every machine (or player) computes
// independently on its local words, so a round body is an embarrassingly
// parallel loop over machines or vertices. This package turns those
// loops into multi-core loops without giving up reproducibility.
//
// # Determinism contract
//
// Every helper shards the index range [0, n) into at most `workers`
// contiguous, disjoint shards and hands each shard to one goroutine.
// Results are combined in ascending shard order, so:
//
//   - writes to element-indexed state (out[i] for i in the shard) are
//     race-free and land exactly where the sequential loop would put
//     them;
//   - integer folds (sums, maxes, first-error selection) are exact and
//     therefore bit-identical to the sequential loop for every worker
//     count;
//   - floating-point folds are deterministic for a fixed worker count,
//     and bit-identical across worker counts only when each individual
//     value is computed entirely inside one element's body (the
//     "per-vertex gather" pattern used throughout this repository) —
//     never split one float sum across shard boundaries.
//
// workers follows the public Options.Workers convention: 0 means
// runtime.NumCPU(), 1 means the exact sequential path on the calling
// goroutine, and n > 1 caps the fan-out at n goroutines.
package par

import (
	"runtime"
	"sync"
)

// minParallel is the smallest range worth fanning out; below it the
// goroutine handoff costs more than the shard work it buys.
const minParallel = 64

// Resolve maps the public Workers knob onto a concrete worker count:
// 0 selects runtime.GOMAXPROCS(0) — the cores this process may
// actually use, which respects cgroup/user caps — and anything below 1
// clamps to 1.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ShardCount returns the number of shards For, Reduce and Collect will
// use for a range of length n — the size callers need for per-worker
// scratch buffers. It is always at least 1.
func ShardCount(workers, n int) int {
	w := Resolve(workers)
	if n < minParallel || w <= 1 {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// shardRange returns the half-open range of shard w out of `shards`
// covering [0, n): ranges are contiguous, disjoint, cover [0, n)
// exactly, and differ in length by at most one.
func shardRange(n, shards, w int) (lo, hi int) {
	q, r := n/shards, n%shards
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// For runs body over [0, n) split into ShardCount(workers, n) contiguous
// shards, one goroutine per shard. body receives the half-open range
// [lo, hi) and the shard index w (usable to index per-worker scratch).
// With workers <= 1, or a range too small to be worth fanning out, body
// runs once as body(0, n, 0) on the calling goroutine — the exact
// sequential path.
func For(workers, n int, body func(lo, hi, w int)) {
	if n <= 0 {
		return
	}
	shards := ShardCount(workers, n)
	if shards == 1 {
		body(0, n, 0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		lo, hi := shardRange(n, shards, w)
		go func() {
			defer wg.Done()
			body(lo, hi, w)
		}()
	}
	wg.Wait()
}

// Reduce runs body once per shard of [0, n) to produce a per-shard
// accumulator, then folds the accumulators with merge in ascending
// shard order. For associative integer folds the result is bit-identical
// to the sequential loop at every worker count. n <= 0 returns the zero
// value of A.
func Reduce[A any](workers, n int, body func(lo, hi, w int) A, merge func(a, b A) A) A {
	if n <= 0 {
		var zero A
		return zero
	}
	shards := ShardCount(workers, n)
	if shards == 1 {
		return body(0, n, 0)
	}
	accs := make([]A, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		lo, hi := shardRange(n, shards, w)
		go func() {
			defer wg.Done()
			accs[w] = body(lo, hi, w)
		}()
	}
	wg.Wait()
	out := accs[0]
	for w := 1; w < shards; w++ {
		out = merge(out, accs[w])
	}
	return out
}

// Collect concatenates the per-shard slices produced by body in
// ascending shard order — the deterministic parallel form of the
// filter-append loop. When body appends indices in ascending order
// within its shard, the result is the exact sequence the sequential
// loop would build.
func Collect[T any](workers, n int, body func(lo, hi, w int) []T) []T {
	if n <= 0 {
		return nil
	}
	shards := ShardCount(workers, n)
	if shards == 1 {
		return body(0, n, 0)
	}
	parts := make([][]T, shards)
	var wg sync.WaitGroup
	wg.Add(shards)
	for w := 0; w < shards; w++ {
		lo, hi := shardRange(n, shards, w)
		go func() {
			defer wg.Done()
			parts[w] = body(lo, hi, w)
		}()
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
