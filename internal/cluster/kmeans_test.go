package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"freshen/internal/freshness"
	"freshen/internal/parallel"
	"freshen/internal/partition"
	"freshen/internal/workload"
)

func testElements(t testing.TB, n int, theta float64, seed int64) []freshness.Element {
	t.Helper()
	spec := workload.TableTwo()
	spec.NumObjects = n
	spec.UpdatesPerPeriod = 2 * float64(n)
	spec.SyncsPerPeriod = float64(n) / 2
	spec.Theta = theta
	spec.Seed = seed
	elems, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return elems
}

func TestRefineZeroIterationsIsIdentity(t *testing.T) {
	elems := testElements(t, 100, 1.0, 1)
	seed, err := partition.Build(elems, partition.KeyPF, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Refine(elems, seed, Config{Iterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 0 || len(stats.Moves) != 0 {
		t.Errorf("zero-iteration stats = %+v", stats)
	}
	if len(got.Groups) != len(seed.Groups) {
		t.Fatalf("group count changed: %d vs %d", len(got.Groups), len(seed.Groups))
	}
	// Same membership (order within groups may be rebuilt).
	if err := got.Validate(len(elems)); err != nil {
		t.Fatal(err)
	}
	for g := range seed.Groups {
		if len(got.Groups[g]) != len(seed.Groups[g]) {
			t.Errorf("group %d size changed with 0 iterations", g)
		}
	}
}

func TestRefineProducesValidPartitioning(t *testing.T) {
	elems := testElements(t, 500, 1.0, 2)
	for _, iters := range []int{1, 3, 10} {
		seed, err := partition.Build(elems, partition.KeyPF, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := Refine(elems, seed, Config{Iterations: iters})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(len(elems)); err != nil {
			t.Errorf("iters=%d: %v", iters, err)
		}
		if stats.Iterations > iters {
			t.Errorf("ran %d iterations, cap was %d", stats.Iterations, iters)
		}
	}
}

func TestRefineImprovesPerceivedFreshness(t *testing.T) {
	// The paper's headline: a few k-means iterations on a modest
	// number of partitions materially improve perceived freshness over
	// the plain partitioning.
	elems := testElements(t, 2000, 1.0, 3)
	const bandwidth, k = 1000, 12
	seed, err := partition.Build(elems, partition.KeyPF, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := partition.Options{Key: partition.KeyPF, NumPartitions: k}
	base, err := partition.SolvePartitioned(elems, bandwidth, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := Refine(elems, seed, Config{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	improved, err := partition.SolvePartitioned(elems, bandwidth, refined, opts)
	if err != nil {
		t.Fatal(err)
	}
	if improved.Solution.Perceived < base.Solution.Perceived-1e-9 {
		t.Errorf("refinement hurt: %v -> %v",
			base.Solution.Perceived, improved.Solution.Perceived)
	}
	if improved.Solution.Perceived <= base.Solution.Perceived {
		t.Logf("warning: refinement did not improve (%v -> %v)",
			base.Solution.Perceived, improved.Solution.Perceived)
	}
}

func TestRefineInertiaNonIncreasing(t *testing.T) {
	elems := testElements(t, 1000, 1.0, 12)
	seed, err := partition.Build(elems, partition.KeyPF, 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Refine(elems, seed, Config{Iterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Inertia) != stats.Iterations {
		t.Fatalf("recorded %d inertia values for %d iterations", len(stats.Inertia), stats.Iterations)
	}
	for i := 1; i < len(stats.Inertia); i++ {
		if stats.Inertia[i] > stats.Inertia[i-1]*(1+1e-12) {
			t.Errorf("inertia rose at iteration %d: %v -> %v",
				i, stats.Inertia[i-1], stats.Inertia[i])
		}
	}
	if stats.Inertia[len(stats.Inertia)-1] >= stats.Inertia[0] && stats.Iterations > 1 {
		t.Error("inertia never improved across iterations")
	}
}

func TestRefineConvergesAndStopsEarly(t *testing.T) {
	elems := testElements(t, 300, 0.8, 4)
	seed, err := partition.Build(elems, partition.KeyPF, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Refine(elems, seed, Config{Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 500 {
		t.Error("k-means did not converge within 500 iterations on 300 elements")
	}
	if len(stats.Moves) == 0 || stats.Moves[len(stats.Moves)-1] != 0 {
		t.Errorf("final iteration moves = %v, want trailing 0", stats.Moves)
	}
	// Rerunning from the converged grouping must make no moves.
	converged, _, err := Refine(elems, seed, Config{Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, stats2, err := Refine(elems, converged, Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Moves[0] != 0 {
		t.Errorf("converged grouping moved %d elements on re-run", stats2.Moves[0])
	}
}

// TestRefineDeterministicAcrossParallelism checks that the grouping
// does not depend on how the assignment step is sharded: n is twice
// parallel.Threshold, so GOMAXPROCS 4 forks where GOMAXPROCS 1 does not.
func TestRefineDeterministicAcrossParallelism(t *testing.T) {
	elems := testElements(t, 2*parallel.Threshold, 1.2, 5)
	seed, err := partition.Build(elems, partition.KeyP, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	refineWith := func(procs int) (partition.Partitioning, Stats) {
		t.Helper()
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		got, stats, err := Refine(elems, seed, Config{Iterations: 5})
		if err != nil {
			t.Fatal(err)
		}
		return got, stats
	}
	a, stats := refineWith(1)
	b, _ := refineWith(4)
	if stats.Moves[0] == 0 {
		t.Fatal("seed grouping already converged; the comparison exercises nothing")
	}
	for g := range a.Groups {
		if len(a.Groups[g]) != len(b.Groups[g]) {
			t.Fatalf("group %d sizes differ across parallelism: %d vs %d",
				g, len(a.Groups[g]), len(b.Groups[g]))
		}
		for i := range a.Groups[g] {
			if a.Groups[g][i] != b.Groups[g][i] {
				t.Fatalf("group %d differs across parallelism", g)
			}
		}
	}
}

func TestRefineWithSizeDimension(t *testing.T) {
	spec := workload.TableTwo()
	spec.NumObjects = 300
	spec.Theta = 1.0
	spec.Sizes = workload.SizePareto
	spec.ParetoShape = 1.1
	spec.SizeAlignment = workload.Reverse
	elems, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := partition.Build(elems, partition.KeyPFOverSize, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Refine(elems, seed, Config{Iterations: 5, IncludeSize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(len(elems)); err != nil {
		t.Fatal(err)
	}
}

func TestRefineValidation(t *testing.T) {
	elems := testElements(t, 10, 1.0, 6)
	seed, err := partition.Build(elems, partition.KeyPF, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Refine(elems, seed, Config{Iterations: -1}); err == nil {
		t.Error("negative iterations must fail")
	}
	if _, _, err := Refine(nil, seed, Config{}); err == nil {
		t.Error("empty element set must fail")
	}
	bad := partition.Partitioning{Groups: [][]int{{0}}}
	if _, _, err := Refine(elems, bad, Config{}); err == nil {
		t.Error("corrupt seed must fail")
	}
}

// BenchmarkRefine times five Lloyd iterations from a KeyPF seed at
// the sizes Figures 8 and 9 and freshend -strategy clustered use,
// either side of where assignNearest starts forking (n·k·2 ≥
// parallel.Threshold).
func BenchmarkRefine(b *testing.B) {
	for _, n := range []int{400, 1000, 10000, 16383} {
		elems := testElements(b, n, 1.0, 1)
		for _, k := range []int{20, 100} {
			seed, err := partition.Build(elems, partition.KeyPF, k, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Refine(elems, seed, Config{Iterations: 5}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
