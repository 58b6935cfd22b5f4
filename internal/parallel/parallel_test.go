package parallel

import (
	"runtime"
	"testing"
)

// TestShardsCoverRange forces the forked path and checks that For
// visits every index exactly once and Sum matches a serial loop.
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
	}
}
