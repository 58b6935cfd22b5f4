package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor sometimes runs other
// tenants on this machine's processors for seconds at a time. Reads in
// flight then stall, and every latency and throughput figure of the
// slice moves with the neighbours' load, not with the program. The
// benchmark therefore samples the machine's stolen CPU time and sets
// aside the time slices in which more than maxSteal of all CPU time
// was stolen, unless too few slices would remain.
const (
	stealTick = 50 * time.Millisecond
	maxSteal  = 0.10
)

// stealWatch samples the steal column of /proc/stat every stealTick.
// Without /proc/stat it records nothing and every slice counts as
// clean.
type stealWatch struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	at    []int64   // clock() of each sample
	steal []float64 // cumulative stolen jiffies
	total []float64 // cumulative jiffies of every kind
}

func startStealWatch() *stealWatch {
	w := &stealWatch{stopc: make(chan struct{})}
	w.sample()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *stealWatch) sample() {
	if steal, total, ok := readCPUStat(); ok {
		w.at = append(w.at, clock())
		w.steal = append(w.steal, steal)
		w.total = append(w.total, total)
	}
}

// stop ends the sampling with one last sample; the samples are
// readable afterwards.
func (w *stealWatch) stop() {
	close(w.stopc)
	w.wg.Wait()
	w.sample()
}

// readCPUStat returns the machine's cumulative stolen and total CPU
// time in jiffies from the first line of /proc/stat.
func readCPUStat() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// frac is the share of CPU time stolen between clock times a and b,
// taken from the samples that bracket the interval (0 when unknown).
func (w *stealWatch) frac(a, b int64) float64 {
	i, j := -1, -1
	for k, t := range w.at {
		if t <= a {
			i = k
		}
		if t >= b && j < 0 {
			j = k
		}
	}
	if i < 0 || j < 0 || w.total[j] <= w.total[i] {
		return 0
	}
	return (w.steal[j] - w.steal[i]) / (w.total[j] - w.total[i])
}

// clean reports, for n consecutive slices of the given width starting
// at clock time origin, which ones other tenants left alone (see
// keepLeastStolen).
func (w *stealWatch) clean(origin int64, width time.Duration, n int) []bool {
	stolen := make([]float64, n)
	for k := range stolen {
		a := origin + int64(k)*int64(width)
		stolen[k] = w.frac(a, a+int64(width))
	}
	return keepLeastStolen(stolen)
}

// keepLeastStolen marks the intervals that lost at most maxSteal of the
// machine's CPU time. When fewer than a third would count, the machine
// was contended throughout, and the third that lost the least count
// instead.
func keepLeastStolen(stolen []float64) []bool {
	keep := make([]bool, len(stolen))
	kept := 0
	for k, f := range stolen {
		keep[k] = f <= maxSteal
		if keep[k] {
			kept++
		}
	}
	if 3*kept >= len(stolen) {
		return keep
	}
	cut := quantile(append([]float64(nil), stolen...), 1.0/3)
	for k, f := range stolen {
		keep[k] = f <= cut
	}
	return keep
}
