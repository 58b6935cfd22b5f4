// Package parallel holds the deterministic fork-join helpers the
// solver and the freshness metrics share: [0, n) is cut into one
// contiguous shard per GOMAXPROCS worker, and small inputs stay on
// the calling goroutine.
package parallel

import (
	"runtime"
	"sync"
)

// Threshold is the element count below which work stays on the
// calling goroutine: under it, goroutine hand-off costs more than the
// arithmetic saved.
const Threshold = 16384

// Sum evaluates fn over contiguous shards of [0, n) — in parallel when
// n is large enough — and returns the shard sums added in shard order.
// The fixed chunking and ordered reduction make the result
// deterministic for a given n and GOMAXPROCS regardless of goroutine
// scheduling.
func Sum(n int, fn func(lo, hi int) float64) float64 {
	workers := runtime.GOMAXPROCS(0)
	if n < Threshold || workers < 2 {
		return fn(0, n)
	}
	partial := make([]float64, workers)
	shards(n, workers, func(w, lo, hi int) { partial[w] = fn(lo, hi) })
	var total float64
	for _, t := range partial {
		total += t
	}
	return total
}

// For runs fn over the same contiguous shards of [0, n), in parallel
// when n is large. Shards are disjoint, so fn may write to per-index
// slots without synchronization.
func For(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < Threshold || workers < 2 {
		fn(0, n)
		return
	}
	shards(n, workers, func(_, lo, hi int) { fn(lo, hi) })
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
