// Package parallel holds the deterministic fork-join helpers the
// solver engine, the k-means refinement and the freshness metrics
// share: [0, n) is cut into one contiguous shard per GOMAXPROCS
// worker, and small inputs stay on the calling goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// Threshold is the element count below which work stays on the
// calling goroutine: under it, goroutine hand-off costs more than the
// arithmetic saved. It assumes about one inner-loop step (one
// inversion, one multiply-add) per element; SumCost scales it for
// heavier elements.
const Threshold = 16384

// Forks reports whether Sum and For split [0, n) across goroutines.
// A caller whose fn is a closure can check it first and run inline
// without building the closure, which escapes to the shard goroutines
// and so costs an allocation.
func Forks(n int) bool { return n >= Threshold && runtime.GOMAXPROCS(0) >= 2 }

// Sum evaluates fn over contiguous shards of [0, n) — in parallel when
// n is large enough — and returns the shard sums added in shard order.
// The fixed chunking and ordered reduction make the result
// deterministic for a given n and GOMAXPROCS regardless of goroutine
// scheduling.
func Sum[T int | float64](n int, fn func(lo, hi int) T) T {
	return SumCost(n, 1, fn)
}

// SumCost is Sum for elements that each take about cost inner-loop
// steps: it forks once n·cost reaches Threshold, and cuts and adds
// the shards exactly as Sum does.
func SumCost[T int | float64](n, cost int, fn func(lo, hi int) T) T {
	if !Forks(n * cost) {
		return fn(0, n)
	}
	workers := runtime.GOMAXPROCS(0)
	partial := make([]T, workers)
	shards(n, workers, func(w, lo, hi int) { partial[w] = fn(lo, hi) })
	var total T
	for _, t := range partial {
		total += t
	}
	return total
}

// For runs fn over the same contiguous shards of [0, n), in parallel
// when n is large. Shards are disjoint, so fn may write to per-index
// slots without synchronization.
func For(n int, fn func(lo, hi int)) {
	if !Forks(n) {
		fn(0, n)
		return
	}
	shards(n, runtime.GOMAXPROCS(0), func(_, lo, hi int) { fn(lo, hi) })
}

// shards runs fn(w, lo, hi) for each non-empty shard w of [0, n) on
// its own goroutine and waits for all of them.
func shards(n, workers int, fn func(w, lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
