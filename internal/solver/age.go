package solver

import (
	"fmt"
	"math"

	"freshen/internal/freshness"
)

// MinimizeAge solves the dual of the Core Problem for operators whose
// SLA is phrased in staleness depth rather than hit freshness:
// minimize the perceived age Σ pᵢ·Ā(fᵢ, λᵢ) subject to Σ sᵢ·fᵢ ≤ B.
// The age objective is convex with an unbounded marginal at f = 0, so
// the same Lagrange water-filling applies — with the notable
// difference that every accessed, changing element receives bandwidth
// (nothing may be allowed to age without bound). Fixed-Order policy
// only.
func MinimizeAge(p Problem) (Solution, error) {
	e := enginePool.Get().(*Engine)
	defer enginePool.Put(e)
	return e.MinimizeAge(p)
}

// MinimizeAge solves the age program on this engine. The age marginal
// is unbounded at f = 0, so every active element is always funded —
// cutoff pruning never fires — but the engine still provides the
// warm-started inversions, secant search and sharded sweeps.
func (e *Engine) MinimizeAge(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if p.Policy != nil {
		if _, ok := p.Policy.(freshness.FixedOrder); !ok {
			return Solution{}, fmt.Errorf("solver: MinimizeAge supports the Fixed-Order policy only")
		}
	}
	return e.solveCurve(p, ageCurve{}, false)
}

// PerceivedAgeOf scores a solution's frequencies on the perceived-age
// metric (convenience wrapper, +Inf when an accessed changing element
// is unfunded).
func PerceivedAgeOf(p Problem, s Solution) (float64, error) {
	return freshness.PerceivedAge(p.Elements, s.Freqs)
}

// VerifyAgeKKT checks the optimality conditions of the age program:
// feasibility and equal marginal age reduction per unit bandwidth
// across all funded elements.
func VerifyAgeKKT(p Problem, s Solution, tol float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if len(s.Freqs) != len(p.Elements) {
		return fmt.Errorf("solver: solution has %d frequencies for %d elements", len(s.Freqs), len(p.Elements))
	}
	var used float64
	for i, e := range p.Elements {
		if s.Freqs[i] < 0 || math.IsNaN(s.Freqs[i]) {
			return fmt.Errorf("solver: element %d has invalid frequency %v", i, s.Freqs[i])
		}
		used += e.Size * s.Freqs[i]
	}
	if used > p.Bandwidth*(1+tol)+tol {
		return fmt.Errorf("solver: bandwidth used %v exceeds budget %v", used, p.Bandwidth)
	}
	mu := s.Multiplier
	if mu <= 0 {
		return fmt.Errorf("solver: multiplier %v not positive", mu)
	}
	for i, e := range p.Elements {
		if e.AccessProb <= 0 || e.Lambda <= 0 {
			if s.Freqs[i] != 0 {
				return fmt.Errorf("solver: valueless element %d funded", i)
			}
			continue
		}
		if s.Freqs[i] == 0 {
			return fmt.Errorf("solver: active element %d unfunded; the age objective forbids starvation", i)
		}
		v := e.AccessProb * freshness.FixedOrderAgeMarginal(s.Freqs[i], e.Lambda) / e.Size
		if math.Abs(v-mu) > tol*mu {
			return fmt.Errorf("solver: element %d marginal %v != multiplier %v", i, v, mu)
		}
	}
	return nil
}
