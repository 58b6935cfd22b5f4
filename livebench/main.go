// Command livebench is the end-to-end benchmark of the live mirror. It
// builds the whole stack in one process from the repository's package
// APIs — a simulated origin on loopback, then either one mirror or a
// sharded fleet behind its router, with persistence in a temporary
// state directory and a metrics registry — drives it with open-loop
// HTTP reads, scores every served (id, X-Version) against the origin,
// and prints the end-to-end metrics. With --trace 1 it also runs the
// workload a second time with every layer boundary timed from outside
// and prints the per-layer metrics. See README.md in this directory.
//
// Usage:
//
//	livebench --workload serve-hot --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the mirror sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_ok_frac", "ratio", "higher"},
	{"read_cpu_us", "us", "lower"},
	{"pf_measured", "ratio", "higher"},
}

// capacityPhase is the length of the closed-loop phase after the
// window: one snapshot cadence, so that every phase carries the same
// background work (one snapshot per mirror, and one replan at the
// default cadence) in read_cpu_us.
const capacityPhase = 5 * time.Second

// options are the run settings shared by every phase.
type options struct {
	seconds time.Duration // measured window
	clients int           // reader goroutines, one connection each
	outDir  string
	seed    int64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-hot | refresh-bulk | fleet-4")
	seed := fs.Int64("seed", 1, "input seed: change rates, access profile and read order")
	seconds := fs.Int("seconds", 12, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for state directories and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "livebench: need --workload (one of serve-hot, refresh-bulk, fleet-4), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	opt := options{
		seconds: time.Duration(*seconds) * time.Second,
		clients: min(runtime.NumCPU(), 2),
		outDir:  *outDir,
		seed:    *seed,
	}
	in, err := generate(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s: n=%d budget=%g shards=%d rate=%g reads/s seed=%d warm-up=%v window=%v clients=%d\n",
		w.name, w.n, w.budget, max(w.shards, 1), w.rate, *seed, w.warmup, opt.seconds, opt.clients)

	if *trace == 0 {
		res, err := measure(w, in, opt, nil, w.setups)
		if err != nil {
			fmt.Fprintln(stderr, "livebench:", err)
			return 1
		}
		res.print(stdout)
		return finish(stdout, res.correct(), res.open.due, res.open.failed, res.endToEnd(), endToEnd)
	}

	untraced, err := measure(w, in, opt, nil, 1)
	if err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "--- untraced run")
	untraced.print(stdout)
	tr := &tracer{}
	traced, err := measure(w, in, opt, tr, 1)
	if err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "--- traced run")
	traced.print(stdout)
	u, t := untraced.endToEnd(), traced.endToEnd()
	uw, tw := untraced.unbounded(), traced.unbounded()
	fmt.Fprintln(stdout, "tracing overhead (traced minus untraced):")
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "  %-20s %+.4f %s\n", d.name, t[d.name]-u[d.name], d.unit)
	}
	for _, d := range unboundedDefs {
		fmt.Fprintf(stdout, "  %-20s %+.4f %s (unbounded)\n", d.name, tw[d.name]-uw[d.name], d.unit)
	}
	spanPath := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, *seed))
	layers, notes, err := traced.layerMetrics(spanPath, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "not measured:", n)
	}
	correct := untraced.correct() && traced.correct()
	return finish(stdout, correct, untraced.open.due+traced.open.due, untraced.open.failed+traced.open.failed, layers, perLayer)
}

// finish prints every metric by name and unit, then the result line,
// and returns the exit code: non-zero when an output check failed.
func finish(out io.Writer, correct bool, attempted, failed int64, values map[string]float64, defs []metricDef) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		fmt.Fprintf(out, "metric %-32s %14.6f %s\n", d.name, v, d.unit)
		result.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(out, "livebench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !correct {
		return 1
	}
	return 0
}
