// Package cluster implements the paper's Section 4.1.3 refinement: a
// k-means (Lloyd) pass over the elements, seeded with the groups an
// initial partitioning produced, using Euclidean distance in the
// normalized (accessProb, changeRate) plane — the paper's Equation 3 —
// and optionally a third, size dimension for the Section 5 workloads.
//
// The paper's surprising result is that very few iterations on few
// partitions beat many plain partitions; the assignment step is
// sharded with internal/parallel so the big-case experiments (hundreds
// of thousands of elements) run in seconds.
package cluster
