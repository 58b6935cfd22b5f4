package freshness

import "freshen/internal/parallel"

// parallelThreshold is where the metric reductions start to fork.
const parallelThreshold = parallel.Threshold
