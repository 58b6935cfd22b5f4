package cluster

import (
	"fmt"

	"freshen/internal/freshness"
	"freshen/internal/parallel"
	"freshen/internal/partition"
)

// Config tunes the refinement.
type Config struct {
	// Iterations is the number of Lloyd iterations; 0 returns the
	// seed grouping unchanged (the paper's "0 iterations" line).
	Iterations int
	// IncludeSize adds a normalized size dimension to the feature
	// space for variable-size mirrors.
	IncludeSize bool
}

// Stats reports what the refinement did.
type Stats struct {
	// Iterations actually run (may stop early on convergence).
	Iterations int
	// Moves[i] is the number of elements that switched clusters in
	// iteration i; a zero entry ends the run.
	Moves []int
	// Inertia[i] is the within-cluster sum of squared distances after
	// iteration i's reassignment — Lloyd's objective, which must be
	// non-increasing across iterations (a repository test enforces
	// this invariant).
	Inertia []float64
}

// Refine runs k-means from the seed grouping and returns the refined
// grouping (with the same number of clusters; clusters may end up
// empty) together with iteration statistics. The seed must be a valid
// partitioning of the element set.
func Refine(elems []freshness.Element, seed partition.Partitioning, cfg Config) (partition.Partitioning, Stats, error) {
	if err := freshness.ValidateElements(elems); err != nil {
		return partition.Partitioning{}, Stats{}, err
	}
	if err := seed.Validate(len(elems)); err != nil {
		return partition.Partitioning{}, Stats{}, err
	}
	if cfg.Iterations < 0 {
		return partition.Partitioning{}, Stats{}, fmt.Errorf("cluster: iterations must be non-negative, got %d", cfg.Iterations)
	}
	k := len(seed.Groups)
	n := len(elems)

	// Build the normalized feature matrix once. Following the paper's
	// footnote 6, change rates are normalized to sum to 1, which puts
	// them on the same scale as the access probabilities (themselves a
	// distribution summing to 1): the Euclidean distance of Equation 3
	// then compares like with like, and the naturally wider spread of
	// the access distribution is what lets it dominate the clustering,
	// matching the paper's observation. Sizes, when included, are
	// normalized the same way.
	dims := 2
	if cfg.IncludeSize {
		dims = 3
	}
	features := make([]float64, n*dims)
	var sumP, sumL, sumS float64
	for _, e := range elems {
		sumP += e.AccessProb
		sumL += e.Lambda
		sumS += e.Size
	}
	if sumP == 0 {
		sumP = 1
	}
	if sumL == 0 {
		sumL = 1
	}
	if sumS == 0 {
		sumS = 1
	}
	for i, e := range elems {
		features[i*dims] = e.AccessProb / sumP
		features[i*dims+1] = e.Lambda / sumL
		if cfg.IncludeSize {
			features[i*dims+2] = e.Size / sumS
		}
	}

	assign := make([]int, n)
	for g, group := range seed.Groups {
		for _, idx := range group {
			assign[idx] = g
		}
	}

	centroids := make([]float64, k*dims)
	counts := make([]int, k)
	stats := Stats{}

	for it := 0; it < cfg.Iterations; it++ {
		computeCentroids(features, assign, centroids, counts, dims, k)
		moves := assignNearest(features, centroids, assign, dims, k)
		stats.Iterations++
		stats.Moves = append(stats.Moves, moves)
		stats.Inertia = append(stats.Inertia, inertia(features, assign, centroids, dims))
		if moves == 0 {
			break
		}
	}

	groups := make([][]int, k)
	for idx, g := range assign {
		groups[g] = append(groups[g], idx)
	}
	return partition.Partitioning{Key: seed.Key, Groups: groups}, stats, nil
}

// inertia returns the within-cluster sum of squared distances to the
// centroids the points were just assigned against.
func inertia(features []float64, assign []int, centroids []float64, dims int) float64 {
	var total float64
	for i, g := range assign {
		fbase, cbase := i*dims, g*dims
		for d := 0; d < dims; d++ {
			diff := features[fbase+d] - centroids[cbase+d]
			total += diff * diff
		}
	}
	return total
}

// computeCentroids recomputes cluster means. A cluster that lost all
// members keeps its previous centroid so it can win points back in a
// later iteration.
func computeCentroids(features []float64, assign []int, centroids []float64, counts []int, dims, k int) {
	sums := make([]float64, k*dims)
	for i := range counts {
		counts[i] = 0
	}
	n := len(assign)
	for i := 0; i < n; i++ {
		g := assign[i]
		counts[g]++
		base := g * dims
		fbase := i * dims
		for d := 0; d < dims; d++ {
			sums[base+d] += features[fbase+d]
		}
	}
	for g := 0; g < k; g++ {
		if counts[g] == 0 {
			continue // keep the stale centroid
		}
		inv := 1 / float64(counts[g])
		for d := 0; d < dims; d++ {
			centroids[g*dims+d] = sums[g*dims+d] * inv
		}
	}
}

// assignNearest moves every element to its nearest centroid and
// returns the number of reassignments. Each element costs k·dims
// distance terms, so parallel.SumCost forks once n·k·dims reaches
// parallel.Threshold; each shard writes a disjoint range of assign.
func assignNearest(features, centroids []float64, assign []int, dims, k int) int {
	return parallel.SumCost(len(assign), k*dims, func(lo, hi int) int {
		moves := 0
		for i := lo; i < hi; i++ {
			fbase := i * dims
			best, bestDist := assign[i], -1.0
			for g := 0; g < k; g++ {
				base := g * dims
				var dist float64
				for d := 0; d < dims; d++ {
					diff := features[fbase+d] - centroids[base+d]
					dist += diff * diff
				}
				if bestDist < 0 || dist < bestDist {
					best, bestDist = g, dist
				}
			}
			if best != assign[i] {
				assign[i] = best
				moves++
			}
		}
		return moves
	})
}
