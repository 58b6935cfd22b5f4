package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestShardsCoverRange forces the forked path and checks that For
// visits every index exactly once and both instantiations of Sum match
// a serial loop.
func TestShardsCoverRange(t *testing.T) {
	old := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{0, 1, Threshold - 1, Threshold, 3*Threshold + 2} {
		hits := make([]int, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
		got := Sum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			return s
		})
		if want := float64(n) * float64(n-1) / 2; got != want {
			t.Errorf("n=%d: Sum = %v, want %v", n, got, want)
		}
		count := Sum(n, func(lo, hi int) int { return hi - lo })
		if count != n {
			t.Errorf("n=%d: Sum[int] = %d, want %d", n, count, n)
		}
	}
}

// TestSumCostForksOnWork checks that SumCost forks on n·cost, not on
// n alone, and that every shard is still counted once.
func TestSumCostForksOnWork(t *testing.T) {
	old := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(old)
	const n = 1000
	cases := []struct {
		cost, shards int
	}{
		{1, 1},
		{Threshold/n - 1, 1},
		{Threshold/n + 1, 3},
	}
	for _, tc := range cases {
		var calls atomic.Int64
		got := SumCost(n, tc.cost, func(lo, hi int) int {
			calls.Add(1)
			return hi - lo
		})
		if got != n || int(calls.Load()) != tc.shards {
			t.Errorf("cost %d: sum %d over %d shards, want %d over %d",
				tc.cost, got, calls.Load(), n, tc.shards)
		}
	}
}
