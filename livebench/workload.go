package main

import (
	"fmt"
	"time"

	"freshen/internal/stats"
)

// period is the wall-clock length of one scheduling period in every
// workload: change rates are per period, and so are the mirror's
// replan and snapshot cadences.
const period = time.Second

// workload is one traffic mix against one topology. Every workload
// uses unit object sizes, Gamma(mean 2, sd 1) change rates per period,
// Zipf(θ=1) reads and one /metrics scrape per period.
type workload struct {
	name string
	// n is the catalog size and budget the refresh budget per period
	// (global across shards for a fleet).
	n      int
	budget float64
	// shards > 1 runs fleet.New behind its router instead of a single
	// httpmirror.New.
	shards int
	// rate is the open-loop read rate in reads per second.
	rate float64
	// replanEvery overrides freshend's default replan cadence (5
	// periods) when non-zero.
	replanEvery float64
	// setups is how many times an untraced run builds the stack;
	// setup_s is the median.
	setups int
	// warmup is how long reads run before the window: long enough for
	// the mirror to learn its access profile and settle past the
	// cold-start rise of its freshness.
	warmup time.Duration
}

var workloads = []workload{
	{
		name:   "serve-hot",
		n:      1000,
		budget: 200,
		rate:   5000,
		setups: 9,
		warmup: 8 * time.Second,
	},
	{
		name:        "refresh-bulk",
		n:           20000,
		budget:      500,
		rate:        500,
		replanEvery: 2,
		setups:      5,
		warmup:      12 * time.Second,
	},
	{
		name:   "fleet-4",
		n:      10000,
		budget: 500,
		shards: 4,
		rate:   1000,
		setups: 5,
		warmup: 8 * time.Second,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// readSeqLen is the length of the pre-generated read-id sequence; the
// generator cycles through it, which covers well over a minute of
// serve-hot traffic before repeating.
const readSeqLen = 1 << 20

// inputs is everything a seed determines: the true change rates, the
// true access profile and the order of reads. The system under test
// only ever sees the rates (through the simulated source) and the
// reads (over HTTP).
type inputs struct {
	lambdas []float64 // true change rate of each object, per period
	access  []float64 // true access probability of each object
	reads   []int32   // object ids in the order they are read
	srcSeed int64     // seed of the source's change events
}

// generate draws a workload's inputs from seed. Zipf ranks land on
// objects through a seeded permutation, so popularity is independent
// of both object id and change rate.
func generate(w workload, seed int64) (*inputs, error) {
	rng := stats.NewRNG(seed)
	gamma, err := stats.NewGammaMeanStdDev(2, 1)
	if err != nil {
		return nil, err
	}
	lambdas := gamma.SampleN(rng.Split(), w.n)
	zipf, err := stats.NewZipf(w.n, 1)
	if err != nil {
		return nil, err
	}
	perm := rng.Split().Perm(w.n)
	access := make([]float64, w.n)
	for rank, id := range perm {
		access[id] = zipf.Prob(rank + 1)
	}
	readRNG := rng.Split()
	reads := make([]int32, readSeqLen)
	for i := range reads {
		reads[i] = int32(perm[zipf.Sample(readRNG)-1])
	}
	return &inputs{lambdas: lambdas, access: access, reads: reads, srcSeed: rng.Int63()}, nil
}

// readID is the object the k-th read of a run asks for.
func (in *inputs) readID(k int64) int {
	return int(in.reads[k%int64(len(in.reads))])
}
