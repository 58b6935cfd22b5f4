package estimate

import (
	"fmt"
	"math"
)

// Naive estimates λ as detections per unit time, X/(n·I). Each poll
// can detect at most one change, so the estimate saturates at 1/I and
// is biased low for λ·I that is not small.
func Naive(detections, polls int, interval float64) (float64, error) {
	if err := checkPollArgs(detections, polls, interval); err != nil {
		return 0, err
	}
	return float64(detections) / (float64(polls) * interval), nil
}

// ChoGM is the bias-corrected estimator of Cho & Garcia-Molina for
// regular polling at interval I:
//
//	λ̂ = −log((n − X + 0.5) / (n + 0.5)) / I.
//
// The half-counts keep the estimate finite when every poll detected a
// change (X = n), where the raw maximum-likelihood estimate diverges.
func ChoGM(detections, polls int, interval float64) (float64, error) {
	if err := checkPollArgs(detections, polls, interval); err != nil {
		return 0, err
	}
	n := float64(polls)
	x := float64(detections)
	return -math.Log((n-x+0.5)/(n+0.5)) / interval, nil
}

func checkPollArgs(detections, polls int, interval float64) error {
	if polls <= 0 {
		return fmt.Errorf("estimate: need at least one poll, got %d", polls)
	}
	if detections < 0 || detections > polls {
		return fmt.Errorf("estimate: detections %d outside [0, %d]", detections, polls)
	}
	if !(interval > 0) || math.IsInf(interval, 0) {
		return fmt.Errorf("estimate: poll interval must be positive and finite, got %v", interval)
	}
	return nil
}

// Poll is one observation: the element was checked after Elapsed time
// and either had or had not changed.
type Poll struct {
	Elapsed float64
	Changed bool
}

// MLE estimates λ from irregular polls by maximizing the exact
// likelihood Π qᵢ^cᵢ (1−qᵢ)^(1−cᵢ) with qᵢ = 1 − e^(−λ·Iᵢ). The
// derivative of the log-likelihood is strictly decreasing in λ, so the
// maximizer is found by bisection. Histories where every poll detected
// a change have no finite maximizer; as with ChoGM, a half-count
// correction is applied by capping the estimate at the mean poll
// spacing — the same bound the online estimators apply during an
// all-changed streak.
func MLE(history []Poll) (float64, error) {
	if len(history) == 0 {
		return 0, fmt.Errorf("estimate: empty poll history")
	}
	allChanged := true
	shortest := math.Inf(1)
	var total float64
	for i, p := range history {
		if !(p.Elapsed > 0) || math.IsInf(p.Elapsed, 0) {
			return 0, fmt.Errorf("estimate: poll %d has invalid elapsed time %v", i, p.Elapsed)
		}
		if !p.Changed {
			allChanged = false
		}
		if p.Elapsed < shortest {
			shortest = p.Elapsed
		}
		total += p.Elapsed
	}
	// Score function: dL/dλ = Σ_changed I·e^(−λI)/(1−e^(−λI)) − Σ_unchanged I.
	score := func(lambda float64) float64 {
		var s float64
		for _, p := range history {
			if p.Changed {
				r := lambda * p.Elapsed
				// I·e^{-r}/(1-e^{-r}) = I / (e^{r} - 1)
				s += p.Elapsed / math.Expm1(r)
			} else {
				s -= p.Elapsed
			}
		}
		return s
	}
	if allChanged {
		// The likelihood increases without bound; return the ChoGM-style
		// capped estimate at the mean spacing. The shortest interval
		// would let one short poll that happened to see a change push
		// the estimate so high that the planner writes the element off,
		// stops polling it, and the estimate never corrects.
		n := len(history)
		return ChoGM(n, n, total/float64(n))
	}
	// Bracket: score(0+) = +Inf when any change observed; if no change
	// was ever observed the score is negative everywhere and λ̂ = 0.
	anyChanged := false
	for _, p := range history {
		if p.Changed {
			anyChanged = true
			break
		}
	}
	if !anyChanged {
		return 0, nil
	}
	lo, hi := 0.0, 1.0/shortest
	for score(hi) > 0 {
		hi *= 2
		if math.IsInf(hi, 0) {
			return 0, fmt.Errorf("estimate: likelihood failed to bracket")
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if score(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-13*hi {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}
