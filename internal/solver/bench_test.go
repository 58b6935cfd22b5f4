package solver

import (
	"fmt"
	"testing"

	"freshen/internal/freshness"
)

// benchSizes are the scales the acceptance numbers are quoted at.
var benchSizes = []struct {
	label string
	n     int
}{
	{"N=1e4", 10_000},
	{"N=1e5", 100_000},
	{"N=1e6", 1_000_000},
}

func benchProblem(n int, pol freshness.Policy, pareto bool) Problem {
	elems := parityWorkload(42, n, pareto)
	var total float64
	for _, e := range elems {
		total += e.Size
	}
	return Problem{Elements: elems, Bandwidth: total * 0.3, Policy: pol}
}

// BenchmarkWaterFill measures the engine on Pareto-sized workloads at
// the paper's scales, for both synchronization policies. Run with
// -benchmem: a serial search allocates only the Freqs slice and solve
// bookkeeping; each forked sweep (a funded prefix of
// parallel.Threshold elements or more, GOMAXPROCS ≥ 2) adds a few
// objects.
func BenchmarkWaterFill(b *testing.B) {
	policies := []struct {
		name string
		pol  freshness.Policy
	}{
		{"fixed", freshness.FixedOrder{}},
		{"poisson", freshness.PoissonOrder{}},
	}
	for _, size := range benchSizes {
		for _, pc := range policies {
			b.Run(fmt.Sprintf("%s/%s", size.label, pc.name), func(b *testing.B) {
				p := benchProblem(size.n, pc.pol, true)
				e := NewEngine()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.WaterFill(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReferenceWaterFill is the pre-engine baseline on the same
// workloads; the ratio against BenchmarkWaterFill is the speedup the
// engine's pruning, secant search and warm starts buy.
func BenchmarkReferenceWaterFill(b *testing.B) {
	policies := []struct {
		name string
		pol  freshness.Policy
	}{
		{"fixed", freshness.FixedOrder{}},
		{"poisson", freshness.PoissonOrder{}},
	}
	for _, size := range benchSizes {
		for _, pc := range policies {
			b.Run(fmt.Sprintf("%s/%s", size.label, pc.name), func(b *testing.B) {
				p := benchProblem(size.n, pc.pol, true)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ReferenceWaterFill(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWaterFillUnitSizes isolates the policy-inversion cost from
// the heavy-tailed size distribution (unit sizes, FixedOrder).
func BenchmarkWaterFillUnitSizes(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.label, func(b *testing.B) {
			p := benchProblem(size.n, freshness.FixedOrder{}, false)
			e := NewEngine()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.WaterFill(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
