package solver

import (
	"math"

	"freshen/internal/freshness"
	"freshen/internal/parallel"
)

// GradientOptions tunes the projected-gradient solver.
type GradientOptions struct {
	// MaxIterations caps the outer loop; 0 means the default (2000).
	MaxIterations int
	// Tolerance is the relative objective-improvement threshold at
	// which the solver declares convergence; 0 means 1e-10.
	Tolerance float64
	// StepScale multiplies the automatically chosen initial step; 0
	// means 1.
	StepScale float64
}

func (o GradientOptions) withDefaults() GradientOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 2000
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-10
	}
	if o.StepScale <= 0 {
		o.StepScale = 1
	}
	return o
}

// Gradient solves the problem by projected gradient ascent on the
// feasible set {f ≥ 0, Σ sᵢ·fᵢ = B}. It stands in for the generic
// non-linear-programming package (IMSL) the paper used: it reaches the
// same optimum as WaterFill but needs many full passes over the data,
// which is exactly the scalability wall the paper's heuristics attack.
func Gradient(p Problem, opts GradientOptions) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	opts = opts.withDefaults()
	pol := p.policy()
	n := len(p.Elements)

	f := make([]float64, n)
	if p.Bandwidth > 0 {
		var sizeSum float64
		for _, e := range p.Elements {
			sizeSum += e.Size
		}
		for i := range f {
			f[i] = p.Bandwidth / sizeSum
		}
	}

	grad := make([]float64, n)
	y := make([]float64, n)
	// The marginal at f=0 is p/λ; scale the step so a typical first
	// move is a meaningful fraction of the per-element budget.
	var peak float64
	for _, e := range p.Elements {
		if e.Lambda > 0 && e.AccessProb > 0 {
			if m := e.AccessProb / e.Lambda; m > peak {
				peak = m
			}
		}
	}
	if peak == 0 {
		sol := Solution{Freqs: f}
		err := sol.evaluate(p)
		return sol, err
	}
	// Scale by sqrt(n) rather than n: after projection a gradient step
	// redistributes bandwidth among elements, and the useful step
	// magnitude shrinks with the problem's diameter (~sqrt(n)) rather
	// than with the per-element budget.
	baseStep := opts.StepScale * p.Bandwidth / (peak * math.Sqrt(float64(n)))

	prevObj := math.Inf(-1)
	iters := 0
	for t := 0; t < opts.MaxIterations; t++ {
		iters++
		step := baseStep / math.Sqrt(float64(t+1))
		// The marginal evaluations dominate each pass at scale; shard
		// them the same deterministic way as the solve engine.
		parallel.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				e := p.Elements[i]
				grad[i] = e.AccessProb * pol.Marginal(f[i], e.Lambda)
				y[i] = f[i] + step*grad[i]
			}
		})
		projectBandwidth(y, p.Elements, p.Bandwidth, f)
		if t%16 == 15 {
			obj, err := Solution{Freqs: f}.perceived(p)
			if err != nil {
				return Solution{}, err
			}
			if obj-prevObj <= opts.Tolerance*math.Max(math.Abs(obj), 1) {
				prevObj = obj
				break
			}
			prevObj = obj
		}
	}

	sol := Solution{Freqs: f, Iterations: iters}
	// Estimate the multiplier as the mean marginal value over funded
	// elements so callers can run the same KKT audit as for WaterFill.
	var muSum float64
	var funded int
	for i, e := range p.Elements {
		if f[i] > 0 && e.AccessProb > 0 && e.Lambda > 0 {
			muSum += e.AccessProb * pol.Marginal(f[i], e.Lambda) / e.Size
			funded++
		}
	}
	if funded > 0 {
		sol.Multiplier = muSum / float64(funded)
	}
	err := sol.evaluate(p)
	return sol, err
}

// perceived scores a frequency vector without mutating the solution.
func (s Solution) perceived(p Problem) (float64, error) {
	tmp := s
	if err := tmp.evaluate(p); err != nil {
		return 0, err
	}
	return tmp.Perceived, nil
}

// projectBandwidth writes into out the Euclidean projection of y onto
// {f ≥ 0, Σ sᵢ·fᵢ = B}: fᵢ = max(0, yᵢ − τ·sᵢ) with τ chosen by
// bisection so the budget binds. All yᵢ must be non-negative, which
// gradient ascent from a non-negative start guarantees.
func projectBandwidth(y []float64, elems []freshness.Element, bandwidth float64, out []float64) {
	usage := func(tau float64) float64 {
		return parallel.Sum(len(elems), func(lo, hi int) float64 {
			var u float64
			for i := lo; i < hi; i++ {
				v := y[i] - tau*elems[i].Size
				if v > 0 {
					u += elems[i].Size * v
				}
			}
			return u
		})
	}
	if bandwidth <= 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	lo := 0.0
	if usage(lo) <= bandwidth {
		// Already within budget (possible only through rounding);
		// keep y clamped at zero.
		for i := range out {
			out[i] = math.Max(0, y[i])
		}
		return
	}
	hi := 0.0
	for i, e := range elems {
		if r := y[i] / e.Size; r > hi {
			hi = r
		}
	}
	for it := 0; it < 100; it++ {
		mid := 0.5 * (lo + hi)
		if usage(mid) > bandwidth {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-15*math.Max(hi, 1) {
			break
		}
	}
	tau := 0.5 * (lo + hi)
	for i, e := range elems {
		v := y[i] - tau*e.Size
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
}
