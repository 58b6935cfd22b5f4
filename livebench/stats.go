package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder lists the percentiles a tail is reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile on the ladder that has
// at least ten of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// durations collects timings in one unit; it is not safe for
// concurrent use.
type durations []float64

func (d *durations) add(v float64) { *d = append(*d, v) }

func (d durations) q(q float64) float64 {
	return quantile(append([]float64(nil), d...), q)
}

func (d durations) max() float64 {
	m := 0.0
	for _, v := range d {
		m = math.Max(m, v)
	}
	return m
}

// sliceQuantile groups samples into consecutive time slices of the
// given width by their time at (nanoseconds from the phase start),
// takes the q-quantile within each slice whose keep flag is set, and
// returns the median over those slices. One stall or burst of machine
// noise then moves one slice, not the reported value.
func sliceQuantile(vals []float64, at []int64, width time.Duration, q float64, keep []bool) float64 {
	slices := make([][]float64, len(keep))
	for i, v := range vals {
		if k := at[i] / int64(width); k < int64(len(keep)) && keep[k] {
			slices[k] = append(slices[k], v)
		}
	}
	var per []float64
	for _, xs := range slices {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// sliceRate counts events per second in each slice of the given width
// whose keep flag is set, by their time at, and returns the median
// rate.
func sliceRate(at []int64, width time.Duration, keep []bool) float64 {
	counts := make([]float64, len(keep))
	for _, t := range at {
		if k := t / int64(width); k < int64(len(keep)) {
			counts[k]++
		}
	}
	var rates []float64
	for k, c := range counts {
		if keep[k] {
			rates = append(rates, c/width.Seconds())
		}
	}
	return median(rates)
}

// slices is how many slices of the given width cover a phase of length
// dur, the last one possibly partial.
func slices(dur, width time.Duration) int {
	return int((dur + width - 1) / width)
}

// slicedFreshness is the share of fresh reads among successful ones in
// the slices whose keep flag is set.
func slicedFreshness(got []served, at []int64, width time.Duration, keep []bool) float64 {
	var ok, fresh float64
	for i, g := range got {
		if k := at[i] / int64(width); k < int64(len(keep)) && keep[k] && g != servedNothing {
			ok++
			if g == servedFresh {
				fresh++
			}
		}
	}
	if ok == 0 {
		return 0
	}
	return fresh / ok
}
