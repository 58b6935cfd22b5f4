package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"freshen/internal/httpmirror"
)

// runResult is everything one build-and-drive of a workload measured.
type runResult struct {
	w        workload
	in       *inputs
	opt      options
	tr       *tracer
	st       *stack    // torn down by the end of measure; the traced run's topology is read after
	setups   []float64 // seconds of each build
	setupCut []float64 // share of the machine's CPU time stolen during each build
	open     *openResult
	capStart int64        // clock() at the start of the capacity phase
	capCPU   []cpuReading // process CPU over each capacitySlice of the capacity phase
	capDone  []int64      // completion times of the capacity phase's reads, from capStart
	steal    *stealWatch
	cpuSec   float64
	samples  samples
	cpu      []cpuReading // process CPU over each period of the window
	rt0, rt1 runtimeSample
	c0, c1   counters
	win0     int64 // window bounds on the benchmark clock
	win1     int64
	violate  int
	examples []string
	heapBase float64    // MB live before the first build: the benchmark's own memory
	layers   layerCalls // post-window layer calls (traced run)
}

// measure builds the stack setups times (setup_s is the median; all
// but the last build are torn down at once), then drives the last one:
// open-loop warm-up, the measured open-loop window with one sampler
// tick per period, and the closed-loop capacity phase.
func measure(w workload, in *inputs, opt options, tr *tracer, setups int) (*runResult, error) {
	r := &runResult{w: w, in: in, opt: opt, tr: tr}
	// The benchmark's own memory (the inputs, the generator, the oracle
	// and the window's per-read results) is all allocated before the
	// first build and read as the heap baseline, which heap_live_mb
	// leaves out; the oracle and generator learn the stack's addresses
	// once it is built.
	orc := newOracle(nil, w.n)
	gen := newLoadgen(in, orc, tr, opt.clients)
	window := newOpenResult(w.rate, opt.seconds)
	runtime.GC()
	r.heapBase = float64(readRuntime().heapLiveBytes) / 1e6
	var st *stack
	sw := startStealWatch()
	var spans [][2]int64 // clock interval of each build
	for i := 0; i < setups; i++ {
		dir, err := newStateDir(stateRoot(opt.outDir))
		if err != nil {
			return nil, err
		}
		a := clock()
		s, err := build(w, in, dir, tr)
		if err != nil {
			sw.stop()
			return nil, fmt.Errorf("building %s: %w", w.name, err)
		}
		r.setups = append(r.setups, s.setup.Seconds())
		spans = append(spans, [2]int64{a, clock()})
		if i < setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
			runtime.GC()
			continue
		}
		st = s
	}
	sw.stop()
	for _, b := range spans {
		r.setupCut = append(r.setupCut, sw.frac(b[0], b[1]))
	}
	r.st = st
	if st.fleet != nil {
		if err := st.awaitReady(); err != nil {
			st.close()
			return nil, err
		}
	}
	orc.src, gen.base = st.src, st.public.url

	gen.openLoop(w.rate, newOpenResult(w.rate, w.warmup))

	r.steal = startStealWatch()
	r.c0 = readCounters(st.mirrors())
	r.rt0 = readRuntime()
	cpu0 := cpuSeconds()
	smp := startSampler(st.public.url)
	cpuw := watchCPU(period)
	r.win0 = clock()
	r.open = gen.openLoop(w.rate, window)
	r.win1 = clock()
	r.samples = smp.stop()
	r.cpu = cpuw.stop()
	r.cpuSec = cpuSeconds() - cpu0
	r.rt1 = readRuntime()
	r.c1 = readCounters(st.mirrors())

	capw := watchCPU(capacitySlice)
	r.capStart, r.capDone = gen.closedLoop(capacityPhase)
	r.capCPU = capw.stop()
	r.steal.stop()
	gen.close()
	var layersErr error
	if tr != nil {
		r.layers, layersErr = postWindowCalls(r)
	}
	r.violate, r.examples = orc.report()
	if err := errors.Join(layersErr, st.close()); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if tr == nil {
		// Nothing reads an untraced run's stack after this, and holding
		// it would keep the closed mirror live through a traced run that
		// follows.
		r.st = nil
	}
	return r, nil
}

// correct reports whether every output check passed.
func (r *runResult) correct() bool { return r.violate == 0 }

// windowSec is the measured window's wall length in seconds.
func (r *runResult) windowSec() float64 { return float64(r.win1-r.win0) / 1e9 }

// capacitySlice is the slice width of the capacity phase's rate.
const capacitySlice = 250 * time.Millisecond

// latencySlice is the slice width for the latency percentiles: long
// enough for each slice to hold 1,000 reads, so that its p99 has ten
// samples beyond it, and at least 200 ms.
func (w workload) latencySlice() time.Duration {
	return max(200*time.Millisecond, time.Duration(1000/w.rate*float64(time.Second)).Round(time.Millisecond))
}

// endToEnd computes the end-to-end metrics. Builds, periods and
// slices in which other tenants took the machine are set aside (see
// stealWatch).
func (r *runResult) endToEnd() map[string]float64 {
	o := r.open
	lw := r.w.latencySlice()
	return map[string]float64{
		"setup_s":      median(kept(r.setups, keepLeastStolen(r.setupCut))),
		"read_ok_frac": ratio(float64(o.ok), float64(o.due)),
		"read_cpu_us":  r.cpuPerRead(),
		"pf_measured":  slicedFreshness(o.served, o.dueNs, lw, r.steal.clean(o.start, lw, slices(r.opt.seconds, lw))),
	}
}

// cpuPerRead is the process CPU time per successful read in the
// capacity phase, in microseconds: the median over its slices, setting
// aside slices in which other tenants took the machine. A stalled
// machine completes fewer reads while the mirror's background work
// goes on, so stolen slices would overstate the cost of a read.
func (r *runResult) cpuPerRead() float64 {
	var perRead, stolen []float64
	for _, c := range r.capCPU {
		n := 0
		for _, t := range r.capDone {
			if t += r.capStart; t >= c.from && t < c.to {
				n++
			}
		}
		if n > 0 {
			perRead = append(perRead, 1e6*c.cores*float64(c.to-c.from)/1e9/float64(n))
			stolen = append(stolen, r.steal.frac(c.from, c.to))
		}
	}
	return median(kept(perRead, keepLeastStolen(stolen)))
}

// kept returns the xs whose keep flag is set.
func kept(xs []float64, keep []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// unboundedDefs are figures every run prints, and the traced run with
// their tracing overhead, but that are not end-to-end metrics with a
// bound. On a shared virtual machine the wall-clock read figures and
// cpu_cores move with the CPU time other tenants take, by several times
// between runs of the same code, while the CPU cost per read and
// freshness stay put. The mirror's live heap moves in steps of a whole
// snapshot encoding: persist encodes snapshots and journal records with
// json.Marshal, whose pooled encoder keeps the snapshot's buffer (3.7 MB
// on refresh-bulk) alive for as long as journal appends keep reusing
// it, so a run holds zero, one or two of them for most of its window.
var unboundedDefs = []metricDef{
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"read_capacity_rps", "1/s", "higher"},
	{"cpu_cores", "cores", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// unbounded computes those figures: latency percentiles are medians
// over the window's slices of each slice's percentile, capacity the
// median rate over the capacity phase's slices, and CPU the median of
// the per-period readings; slices and periods in which other tenants
// took the machine are set aside. The live heap is the median of the
// window's readings less the heap baseline, the benchmark's own memory.
func (r *runResult) unbounded() map[string]float64 {
	o := r.open
	lw := r.w.latencySlice()
	keep := r.steal.clean(o.start, lw, slices(r.opt.seconds, lw))
	var cores, stolen []float64
	for _, c := range r.cpu {
		cores = append(cores, c.cores)
		stolen = append(stolen, r.steal.frac(c.from, c.to))
	}
	return map[string]float64{
		"read_p50_ms":       sliceQuantile(o.latMs, o.dueNs, lw, 0.5, keep),
		"read_p99_ms":       sliceQuantile(o.latMs, o.dueNs, lw, 0.99, keep),
		"read_capacity_rps": sliceRate(r.capDone, capacitySlice, r.steal.clean(r.capStart, capacitySlice, slices(capacityPhase, capacitySlice))),
		"cpu_cores":         median(kept(cores, keepLeastStolen(stolen))),
		"heap_live_mb":      median(append([]float64(nil), r.samples.heapMB...)) - r.heapBase,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the run's human-readable report.
func (r *runResult) print(out io.Writer) {
	o := r.open
	fmt.Fprintf(out, "setups: %d, seconds %v, stolen %v\n", len(r.setups), fmtList(r.setups), fmtList(r.setupCut))
	lw := r.w.latencySlice()
	n := slices(r.opt.seconds, lw)
	clean := 0
	for _, k := range r.steal.clean(o.start, lw, n) {
		if k {
			clean++
		}
	}
	fmt.Fprintf(out, "host: %.1f%% of the machine's CPU time stolen by other tenants in the window; %d of %d latency slices (%v) used\n",
		100*r.steal.frac(r.win0, r.win1), clean, n, lw)
	fmt.Fprintf(out, "reads due %d, succeeded %d, failed %d (shed %d, output check %d), fresh %d\n",
		o.due, o.ok, o.failed, o.shed, o.broken, o.fresh)
	lat := append([]float64(nil), o.latMs...)
	fmt.Fprintf(out, "read latency over the whole window: %d samples, p50 %.4f ms, p99 %.4f ms",
		len(lat), quantile(lat, 0.5), quantileSorted(lat, 0.99))
	if p := tailPercentile(len(lat)); p > 99 {
		fmt.Fprintf(out, ", p%g %.3f ms (the highest percentile with >= 10 samples beyond it)", p, quantileSorted(lat, p/100))
	}
	fmt.Fprintln(out)
	late := append([]float64(nil), o.latenessMs...)
	fmt.Fprintf(out, "loadgen lateness: p50 %.4f ms, p99 %.4f ms, max %.3f ms\n",
		quantile(late, 0.5), quantileSorted(late, 0.99), quantileSorted(late, 1))
	fmt.Fprintf(out, "capacity phase: %d reads in %v; window CPU %.3f cores on average\n",
		len(r.capDone), capacityPhase, r.cpuSec/r.windowSec())
	ub := r.unbounded()
	for _, d := range unboundedDefs {
		fmt.Fprintf(out, "unbounded %-25s %14.6f %s\n", d.name, ub[d.name], d.unit)
	}
	sc := append([]float64(nil), r.samples.scrapeMs...)
	fmt.Fprintf(out, "obs scrape: %d scrapes, p50 %.3f ms, p99 %.3f ms\n", len(sc), quantile(sc, 0.5), quantileSorted(sc, 0.99))
	rt := runtimeDelta(r.rt0, r.rt1, r.windowSec())
	fmt.Fprintf(out, "heap: %.3f MB live before the first build (the benchmark's own; left out of heap_live_mb)\n", r.heapBase)
	fmt.Fprintf(out, "runtime: alloc %.1f MB/s, gc cpu %.3f, gc pause p99 %.3f ms\n", rt.allocMBs, rt.gcCPUFrac, rt.pauseP99Ms)
	if r.violate > 0 {
		fmt.Fprintf(out, "OUTPUT CHECK FAILED: %d violations\n", r.violate)
		for _, e := range r.examples {
			fmt.Fprintln(out, "  ", e)
		}
	}
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// counters are the mirrors' Status counters, summed over shards.
type counters struct {
	fetches, transfers, replans, notModified int
	admitted, shed                           uint64
	now, bandwidth                           float64 // mean clock; summed planned bandwidth per period
	accesses                                 []int   // per mirror
}

func readCounters(ms []*httpmirror.Mirror) counters {
	var c counters
	for _, m := range ms {
		s := m.Status()
		c.fetches += s.Fetches
		c.transfers += s.Transfers
		c.replans += s.Replans
		c.notModified += s.NotModified
		c.admitted += s.Admitted
		c.shed += s.Shed
		c.now += s.Now / float64(len(ms))
		c.bandwidth += s.BandwidthUsed
		c.accesses = append(c.accesses, s.Accesses)
	}
	return c
}

// cpuWatch reads the process CPU time at a fixed tick.
type cpuWatch struct {
	stopc    chan struct{}
	wg       sync.WaitGroup
	readings []cpuReading
}

// watchCPU starts reading the process CPU time every tick.
func watchCPU(tick time.Duration) *cpuWatch {
	w := &cpuWatch{stopc: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		last, lastAt := cpuSeconds(), clock()
		for {
			select {
			case <-w.stopc:
				return
			case <-t.C:
			}
			cpu, at := cpuSeconds(), clock()
			w.readings = append(w.readings, cpuReading{from: lastAt, to: at, cores: (cpu - last) / (float64(at-lastAt) / 1e9)})
			last, lastAt = cpu, at
		}
	}()
	return w
}

// stop ends the readings and returns them.
func (w *cpuWatch) stop() []cpuReading {
	close(w.stopc)
	w.wg.Wait()
	return w.readings
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, idleCPU  float64
	totalCPU        float64
	pauses          *metrics.Float64Histogram
	heapLiveBytes   uint64
	haveHeapMetrics bool
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
		r.idleCPU = s[2].Value.Float64()
		r.totalCPU = s[3].Value.Float64()
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[4].Value.Float64Histogram()
		r.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	if s[5].Value.Kind() == metrics.KindUint64 {
		r.heapLiveBytes = s[5].Value.Uint64()
		r.haveHeapMetrics = true
	}
	return r
}

// runtimeStats are the runtime's counters over a window.
type runtimeStats struct {
	allocMBs, gcCPUFrac, pauseP99Ms float64
}

func runtimeDelta(a, b runtimeSample, sec float64) runtimeStats {
	var s runtimeStats
	s.allocMBs = float64(b.allocBytes-a.allocBytes) / 1e6 / sec
	s.gcCPUFrac = ratio(b.gcCPU-a.gcCPU, (b.totalCPU-b.idleCPU)-(a.totalCPU-a.idleCPU))
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		var total uint64
		d := make([]uint64, len(b.pauses.Counts))
		for i := range d {
			d[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
			total += d[i]
		}
		var cum uint64
		for i, c := range d {
			cum += c
			if total > 0 && float64(cum) >= 0.99*float64(total) {
				// Report the bucket's upper edge (its lower one when the
				// upper is unbounded).
				edge := b.pauses.Buckets[i+1]
				if edge > 1e9 {
					edge = b.pauses.Buckets[i]
				}
				s.pauseP99Ms = edge * 1e3
				break
			}
		}
	}
	return s
}

// samples are the sampler's readings.
type samples struct {
	heapMB   []float64 // live heap, every heapTick
	scrapeMs []float64 // one /metrics scrape per period
}

// cpuReading is the process's CPU seconds per wall second over one
// interval.
type cpuReading struct {
	from, to int64
	cores    float64
}

// heapTick is how often the sampler reads the live heap. The live heap
// is only updated at the end of each garbage collection, and on
// refresh-bulk it swings with the serving snapshots that happen to be
// alive then, so it is read ten times a period.
const heapTick = period / 10

// sampler reads the live heap every heapTick during the window, and
// once per period scrapes /metrics on the public listener, as
// Prometheus would.
type sampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	s     samples
}

func startSampler(url string) *sampler {
	s := &sampler{stopc: make(chan struct{})}
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer client.CloseIdleConnections()
		t := time.NewTicker(heapTick)
		defer t.Stop()
		for tick := 1; ; tick++ {
			select {
			case <-s.stopc:
				return
			case <-t.C:
			}
			if rt := readRuntime(); rt.haveHeapMetrics {
				s.s.heapMB = append(s.s.heapMB, float64(rt.heapLiveBytes)/1e6)
			}
			if tick%int(period/heapTick) != 0 {
				continue
			}
			start := clock()
			resp, err := client.Get(url + "/metrics")
			if err != nil {
				continue
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				s.s.scrapeMs = append(s.s.scrapeMs, float64(clock()-start)/1e6)
			}
		}
	}()
	return s
}

// stop ends the sampler and returns its readings.
func (s *sampler) stop() samples {
	close(s.stopc)
	s.wg.Wait()
	return s.s
}
