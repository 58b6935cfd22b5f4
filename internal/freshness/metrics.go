package freshness

import (
	"fmt"

	"freshen/internal/parallel"
)

// errLenMismatch reports an element/frequency vector length mismatch.
func errLenMismatch(elems, freqs int) error {
	return fmt.Errorf("freshness: %d elements but %d frequencies", elems, freqs)
}

// Perceived returns the perceived freshness of the mirror under the
// given refresh frequencies: Σᵢ pᵢ·F(fᵢ, λᵢ) (the paper's Definition 4
// combined with its Section 2 identity PF = Σ pᵢ F̄ᵢ). The freqs slice
// must be element-aligned with elems. Large mirrors are reduced over
// deterministic shards in parallel: each Freshness evaluation costs an
// exp, which dominates scoring at web-mirror scale.
func Perceived(p Policy, elems []Element, freqs []float64) (float64, error) {
	if len(elems) != len(freqs) {
		return 0, errLenMismatch(len(elems), len(freqs))
	}
	pf := parallel.Sum(len(elems), func(lo, hi int) float64 {
		var sum float64
		for i := lo; i < hi; i++ {
			sum += elems[i].AccessProb * p.Freshness(freqs[i], elems[i].Lambda)
		}
		return sum
	})
	return pf, nil
}

// Average returns the unweighted mean freshness (1/N)·Σᵢ F(fᵢ, λᵢ),
// the objective of the paper's GF baseline (Cho & Garcia-Molina).
// Reduced the same sharded way as Perceived.
func Average(p Policy, elems []Element, freqs []float64) (float64, error) {
	if len(elems) != len(freqs) {
		return 0, errLenMismatch(len(elems), len(freqs))
	}
	if len(elems) == 0 {
		return 0, fmt.Errorf("freshness: mirror has no elements")
	}
	sum := parallel.Sum(len(elems), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += p.Freshness(freqs[i], elems[i].Lambda)
		}
		return s
	})
	return sum / float64(len(elems)), nil
}

// BandwidthUsed returns Σᵢ sᵢ·fᵢ, the bandwidth a frequency vector
// consumes under the extended (variable-size) constraint; with unit
// sizes it is simply the total number of refreshes per period.
func BandwidthUsed(elems []Element, freqs []float64) (float64, error) {
	if len(elems) != len(freqs) {
		return 0, errLenMismatch(len(elems), len(freqs))
	}
	b := parallel.Sum(len(elems), func(lo, hi int) float64 {
		var sum float64
		for i := lo; i < hi; i++ {
			sum += elems[i].Size * freqs[i]
		}
		return sum
	})
	return b, nil
}
