package solver

import (
	"math"
	"runtime"
	"testing"

	"freshen/internal/freshness"
	"freshen/internal/parallel"
)

// TestEngineDeterministicAcrossRuns checks the determinism guarantee:
// for a fixed worker count, solves of the same problem from the same
// starting state are bit-identical regardless of goroutine scheduling,
// because shards are fixed and partial sums reduce in shard order.
// (A *reused* engine may differ in the last couple of ulps — carried
// warm hints land each Newton solve on a slightly different root
// within its 1e-15 tolerance — which TestEngineReuseMatchesFresh
// bounds.) n exceeds the parallel threshold and GOMAXPROCS is 4, so
// the sweeps actually fork, and `go test -race` exercises them.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	elems := parityWorkload(11, 2*parallel.Threshold, true)
	var total float64
	for _, el := range elems {
		total += el.Size
	}
	p := Problem{Elements: elems, Bandwidth: total * 0.4}

	solve := func() Solution {
		t.Helper()
		sol, err := NewEngine().WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	first := solve()
	for run := 0; run < 3; run++ {
		again := solve()
		if again.Perceived != first.Perceived || again.BandwidthUsed != first.BandwidthUsed {
			t.Fatalf("run %d: metrics drifted: %v/%v vs %v/%v",
				run, again.Perceived, again.BandwidthUsed, first.Perceived, first.BandwidthUsed)
		}
		for i := range first.Freqs {
			if again.Freqs[i] != first.Freqs[i] {
				t.Fatalf("run %d: element %d frequency drifted: %v vs %v",
					run, i, again.Freqs[i], first.Freqs[i])
			}
		}
	}
}

// TestEngineSerialParallelAgree compares a serial solve (GOMAXPROCS 1)
// against a parallel one (GOMAXPROCS 8). Summation order differs
// between the two, so exact bit-identity is not promised across worker
// counts — but the schedules must agree far inside any tolerance
// downstream code uses.
func TestEngineSerialParallelAgree(t *testing.T) {
	elems := parityWorkload(7, 2*parallel.Threshold, false)
	p := Problem{Elements: elems, Bandwidth: float64(len(elems)) * 0.3}

	solveWith := func(procs int) Solution {
		t.Helper()
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		sol, err := NewEngine().WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	s, pp := solveWith(1), solveWith(8)
	if d := math.Abs(s.Perceived - pp.Perceived); d > 1e-12*(1+s.Perceived) {
		t.Errorf("Perceived differs serial vs parallel: %v vs %v", s.Perceived, pp.Perceived)
	}
	for i := range s.Freqs {
		tol := 1e-12 * (1 + s.Freqs[i] + p.Bandwidth/elems[i].Size)
		if d := math.Abs(s.Freqs[i] - pp.Freqs[i]); d > tol {
			t.Errorf("element %d: serial %v vs parallel %v", i, s.Freqs[i], pp.Freqs[i])
		}
	}
}

// TestEngineCutoffPruning verifies the funding-cutoff logic end to
// end: with a tiny budget only the elements whose first sliver of
// bandwidth is most valuable get funded; everything below the final
// multiplier's cutoff stays exactly at zero.
func TestEngineCutoffPruning(t *testing.T) {
	// Cutoff μᵢ* = pᵢ/(λᵢ·sᵢ): element 0 dominates, element 3 is dirt.
	elems := []freshness.Element{
		{ID: 0, Lambda: 1, AccessProb: 0.70, Size: 1},   // cutoff 0.70
		{ID: 1, Lambda: 1, AccessProb: 0.20, Size: 1},   // cutoff 0.20
		{ID: 2, Lambda: 1, AccessProb: 0.08, Size: 1},   // cutoff 0.08
		{ID: 3, Lambda: 10, AccessProb: 0.02, Size: 20}, // cutoff 0.0001
	}
	sol, err := WaterFill(Problem{Elements: elems, Bandwidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Freqs[0] <= 0 {
		t.Errorf("dominant element unfunded: %v", sol.Freqs)
	}
	if sol.Multiplier <= elems[3].AccessProb/(elems[3].Lambda*elems[3].Size) {
		t.Fatalf("budget too generous for the test: μ=%v", sol.Multiplier)
	}
	if sol.Freqs[3] != 0 {
		t.Errorf("element below cutoff got bandwidth: %v", sol.Freqs[3])
	}
	if sol.BandwidthUsed > 0.5*(1+1e-12) {
		t.Errorf("budget exceeded: %v", sol.BandwidthUsed)
	}
}

// TestEngineZeroAndDegenerate covers the early-return paths the old
// solver had: zero bandwidth, no valuable elements, empty input.
func TestEngineZeroAndDegenerate(t *testing.T) {
	elems := []freshness.Element{
		{ID: 0, Lambda: 1, AccessProb: 0.5, Size: 1},
		{ID: 1, Lambda: 2, AccessProb: 0.5, Size: 1},
	}
	sol, err := WaterFill(Problem{Elements: elems, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sol.Freqs {
		if f != 0 {
			t.Errorf("zero budget but element %d got frequency %v", i, f)
		}
	}

	dead := []freshness.Element{
		{ID: 0, Lambda: 0, AccessProb: 0.5, Size: 1},
		{ID: 1, Lambda: 1, AccessProb: 0, Size: 1},
	}
	sol, err = WaterFill(Problem{Elements: dead, Bandwidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sol.Freqs {
		if f != 0 {
			t.Errorf("valueless element %d got frequency %v", i, f)
		}
	}

	if _, err := WaterFill(Problem{Elements: nil, Bandwidth: 5}); err == nil {
		t.Error("empty problem should be rejected by validation")
	}
}

// TestEngineReuseMatchesFresh runs one engine across a sequence of
// unrelated problems (different sizes, policies, budgets) and checks
// each answer against a fresh pool solve: stale warm-start state or
// scratch from a previous solve must never leak into the next.
func TestEngineReuseMatchesFresh(t *testing.T) {
	e := NewEngine()
	policies := []freshness.Policy{freshness.FixedOrder{}, freshness.PoissonOrder{}, nil}
	for seed := int64(1); seed <= 6; seed++ {
		n := 8 << uint(seed) // 16 … 512
		elems := parityWorkload(seed, n, seed%2 == 0)
		p := Problem{
			Elements:  elems,
			Bandwidth: float64(n) * 0.2,
			Policy:    policies[seed%3],
		}
		reused, err := e.WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Freqs {
			tol := 1e-12 * (1 + fresh.Freqs[i] + p.Bandwidth/elems[i].Size)
			if d := math.Abs(reused.Freqs[i] - fresh.Freqs[i]); d > tol {
				t.Errorf("seed %d element %d: reused %v vs fresh %v", seed, i, reused.Freqs[i], fresh.Freqs[i])
			}
		}
	}
}

// TestEngineSolveAllocs pins the allocation-free property: after the
// first solve warms the buffers, a reused engine allocates only the
// caller-visible Freqs slice (plus at most a rounding allocation or
// two inside evaluate) — nothing per bisection iteration.
func TestEngineSolveAllocs(t *testing.T) {
	elems := parityWorkload(3, 4096, true)
	p := Problem{Elements: elems, Bandwidth: 512}
	e := NewEngine()
	if _, err := e.WaterFill(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.WaterFill(p); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc for Solution.Freqs; leave headroom for the runtime.
	if allocs > 4 {
		t.Errorf("warm solve allocates %v objects per run; want ≤ 4", allocs)
	}
}

// TestEngineSerialSweepAllocs extends that property past
// parallel.Threshold: at GOMAXPROCS 1 no sweep forks, so none may build
// the fork's closure either. The bracketing sweep at the smallest
// funding cutoff covers all active elements but one, so every solve
// here has sweeps past the threshold.
func TestEngineSerialSweepAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	elems := parityWorkload(3, 2*parallel.Threshold, false)
	p := Problem{Elements: elems, Bandwidth: float64(len(elems)) * 0.3}
	e := NewEngine()
	if _, err := e.WaterFill(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := e.WaterFill(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("warm serial solve allocates %v objects per run; want ≤ 4", allocs)
	}
}

// TestEngineAgeAndBlendReuse exercises the non-water-fill curves
// through one shared engine.
func TestEngineAgeAndBlendReuse(t *testing.T) {
	elems := parityWorkload(5, 64, false)
	p := Problem{Elements: elems, Bandwidth: 16}
	e := NewEngine()

	age1, err := e.MinimizeAge(p)
	if err != nil {
		t.Fatal(err)
	}
	age2, err := MinimizeAge(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range age1.Freqs {
		if d := math.Abs(age1.Freqs[i] - age2.Freqs[i]); d > 1e-9*(1+age2.Freqs[i]) {
			t.Errorf("age element %d: engine %v vs package %v", i, age1.Freqs[i], age2.Freqs[i])
		}
	}

	b1, err := e.Blend(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Blend(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Freqs {
		if d := math.Abs(b1.Freqs[i] - b2.Freqs[i]); d > 1e-9*(1+b2.Freqs[i]) {
			t.Errorf("blend element %d: engine %v vs package %v", i, b1.Freqs[i], b2.Freqs[i])
		}
	}
}
