package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"freshen/internal/httpmirror"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}, {1000000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestSliceStatistics(t *testing.T) {
	sec := int64(time.Second)
	// Three one-second slices; the middle one is a stall.
	vals := []float64{1, 1, 1, 100, 100, 100, 2, 2, 2}
	at := []int64{0, 1, 2, sec, sec + 1, sec + 2, 2 * sec, 2*sec + 1, 2*sec + 2}
	all := []bool{true, true, true}
	if got := sliceQuantile(vals, at, time.Second, 0.99, all); got != 2 {
		t.Errorf("sliceQuantile = %v, want 2 (the stalled slice must not set it)", got)
	}
	if got := sliceQuantile(vals, at, time.Second, 0.99, []bool{true, false, false}); got != 1 {
		t.Errorf("sliceQuantile over the first slice = %v, want 1", got)
	}
	done := []int64{0, 1, sec / 4, sec/4 + 1, sec / 2, 3 * sec / 4, 3*sec/4 + 1, 3*sec/4 + 2}
	if got := sliceRate(done, 250*time.Millisecond, []bool{true, true, true, true}); got != 8 {
		t.Errorf("sliceRate = %v, want 8 per second", got)
	}
	if got := sliceRate(done, 250*time.Millisecond, []bool{false, false, false, true}); got != 12 {
		t.Errorf("sliceRate over the last slice = %v, want 12 per second", got)
	}
	got := []served{servedFresh, servedStale, servedNothing, servedStale, servedStale, servedFresh}
	at = []int64{0, 1, 2, sec, sec + 1, sec + 2}
	if pf := slicedFreshness(got, at, time.Second, []bool{true, true}); pf != 0.4 {
		t.Errorf("slicedFreshness = %v, want 2 fresh of 5 served", pf)
	}
	if pf := slicedFreshness(got, at, time.Second, []bool{false, true}); pf != 1.0/3 {
		t.Errorf("slicedFreshness over the second slice = %v, want 1/3", pf)
	}
	if k := kept([]float64{1, 2, 3}, []bool{true, false, true}); !reflect.DeepEqual(k, []float64{1, 3}) {
		t.Errorf("kept = %v, want [1 3]", k)
	}
	if got := slices(2500*time.Millisecond, time.Second); got != 3 {
		t.Errorf("slices = %d, want 3", got)
	}
}

// fakeSource is a versioner with settable versions.
type fakeSource []int

func (f fakeSource) Version(id int) (int, error) {
	if id < 0 || id >= len(f) {
		return 0, errors.New("no such object")
	}
	return f[id], nil
}

func body(id, ver int) []byte { return []byte(fmt.Sprintf("object %d version %d", id, ver)) }

func TestOracleScoresFreshAndStale(t *testing.T) {
	src := fakeSource{3, 5}
	o := newOracle(src, len(src))
	fresh, err := o.check(0, 3, body(0, 3), 10, 20)
	if err != nil || !fresh {
		t.Fatalf("current version: fresh=%v err=%v, want fresh", fresh, err)
	}
	fresh, err = o.check(1, 4, body(1, 4), 10, 20)
	if err != nil || fresh {
		t.Fatalf("older version: fresh=%v err=%v, want stale without error", fresh, err)
	}
	if n, _ := o.report(); n != 0 {
		t.Fatalf("violations = %d, want 0", n)
	}
}

func TestOracleRejectsBadOutputs(t *testing.T) {
	for _, c := range []struct {
		name       string
		id, ver    int
		body       []byte
		start, end int64
	}{
		{"body does not match X-Version", 0, 2, body(0, 1), 30, 40},
		{"body names another object", 0, 2, body(1, 2), 30, 40},
		{"version ahead of the source", 0, 4, body(0, 4), 30, 40},
		{"version went back", 0, 1, body(0, 1), 30, 40},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := newOracle(fakeSource{3}, 1)
			// An earlier read, completed at 20, saw version 2.
			if _, err := o.check(0, 2, body(0, 2), 10, 20); err != nil {
				t.Fatal(err)
			}
			if _, err := o.check(c.id, c.ver, c.body, c.start, c.end); err == nil {
				t.Fatal("check passed, want a violation")
			}
			if n, msgs := o.report(); n != 1 || len(msgs) != 1 {
				t.Fatalf("report = %d %q, want one violation", n, msgs)
			}
		})
	}
}

func TestOracleAllowsOverlappingReads(t *testing.T) {
	o := newOracle(fakeSource{2}, 1)
	// Read A (sent 10, done 30) saw version 2; read B overlapped it
	// (sent 20, before A completed) and saw version 1: both orders are
	// linearizable, so B is stale but not a violation.
	if _, err := o.check(0, 2, body(0, 2), 10, 30); err != nil {
		t.Fatal(err)
	}
	fresh, err := o.check(0, 1, body(0, 1), 20, 40)
	if err != nil || fresh {
		t.Fatalf("overlapping older read: fresh=%v err=%v, want stale without error", fresh, err)
	}
}

func TestSeedDeterminism(t *testing.T) {
	w := workload{name: "t", n: 500, budget: 50, rate: 100}
	a, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	c, err := generate(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.lambdas, c.lambdas) || reflect.DeepEqual(a.reads, c.reads) || reflect.DeepEqual(a.access, c.access) {
		t.Fatal("different seeds gave identical inputs")
	}
	if len(a.lambdas) != w.n || len(a.access) != w.n {
		t.Fatalf("catalog has %d rates and %d access probabilities, want %d", len(a.lambdas), len(a.access), w.n)
	}
	var total float64
	for _, p := range a.access {
		total += p
	}
	if total < 0.999999 || total > 1.000001 {
		t.Fatalf("access profile sums to %v, want 1", total)
	}
}

func TestTracedSourceKeepsProtocol(t *testing.T) {
	var tr tracer
	src := tr.source(httpmirror.NewSourceClient("http://127.0.0.1:1", nil))
	if _, ok := src.(httpmirror.ConditionalSource); !ok {
		t.Error("traced source lost ConditionalSource")
	}
	if _, ok := src.(httpmirror.UpstreamHealth); ok {
		t.Error("traced source gained UpstreamHealth")
	}
}

// TestTracedRunUsesConditionalFetches runs a small traced single mirror
// until a conditional poll comes back 304: the Source wrapper must
// leave the mirror on the conditional protocol.
func TestTracedRunUsesConditionalFetches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live mirror for a few seconds")
	}
	w := workload{name: "t", n: 40, budget: 20, rate: 100}
	in, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.lambdas {
		in.lambdas[i] = 0.05 // almost every poll finds the copy unchanged
	}
	dir, err := newStateDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	st, err := build(w, in, dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	deadline := time.Now().Add(20 * time.Second)
	for st.mirror.Status().NotModified == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no 304 after 20s: %+v", st.mirror.Status())
		}
		time.Sleep(50 * time.Millisecond)
	}
	var cond int
	for _, s := range tr.snapshot() {
		if s.name == "source.fetch_if_newer" {
			cond++
		}
		if s.name == "source.version" {
			t.Fatalf("traced mirror fell back to HEAD polls")
		}
	}
	if cond == 0 {
		t.Fatal("no conditional fetch spans recorded")
	}
}

func TestStealWatchSetsAsideStolenSlices(t *testing.T) {
	w := &stealWatch{
		at:    []int64{0, 100, 200, 300, 400},
		steal: []float64{0, 0, 50, 50, 50},
		total: []float64{0, 100, 200, 300, 400},
	}
	if got := w.frac(100, 200); got != 0.5 {
		t.Fatalf("frac = %v, want 0.5", got)
	}
	if got := w.clean(0, 100, 4); !reflect.DeepEqual(got, []bool{true, false, true, true}) {
		t.Fatalf("clean = %v, want the stolen second slice set aside", got)
	}
	w.steal = []float64{0, 20, 50, 90, 150}
	if got := w.clean(0, 100, 4); !reflect.DeepEqual(got, []bool{true, true, false, false}) {
		t.Fatalf("clean on a machine contended throughout = %v, want the least stolen third", got)
	}
	var none stealWatch
	if got := none.clean(0, 100, 2); !reflect.DeepEqual(got, []bool{true, true}) {
		t.Fatalf("clean without samples = %v, want every slice", got)
	}
}

func TestLinkSelfTime(t *testing.T) {
	spans := []span{
		{id: 1, req: 7, name: "read", start: 0, end: 100},
		{id: 2, req: 7, name: "handler", start: 30, end: 50},
		{id: 3, req: -1, name: "step", start: 0, end: 60},
		{id: 4, parent: 3, req: -1, name: "source.fetch", start: 10, end: 40},
	}
	self := link(spans)
	if spans[1].parent != 1 {
		t.Fatalf("handler parent = %d, want the read with the same request id", spans[1].parent)
	}
	want := []int64{80, 20, 30, 30}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

// TestRefreshLoopRestartsAndReports checks that a failed refresh loop is
// restarted after one period, as freshend does, and that the failure is
// kept for close to report.
func TestRefreshLoopRestartsAndReports(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &stack{}
	calls := 0
	var restartedAfter time.Duration
	failedAt := time.Now()
	s.refreshLoop(ctx, func(context.Context) error {
		calls++
		if calls == 1 {
			failedAt = time.Now()
			return errors.New("replan failed")
		}
		restartedAfter = time.Since(failedAt)
		cancel()
		return nil
	})
	if calls != 2 || restartedAfter < period {
		t.Fatalf("loop ran %d times, restarted after %v; want 2 runs, restart after %v", calls, restartedAfter, period)
	}
	if s.loopFails != 1 || s.loopErr == nil || s.loopErr.Error() != "replan failed" {
		t.Fatalf("recorded %d failures, first %v; want 1, replan failed", s.loopFails, s.loopErr)
	}
}

// TestBenchmarkManifest checks BENCHMARK.json against the program: the
// same workloads and the same metrics with the same units.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d] = %+v, program has %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestRunPrintsResultLine runs serve-hot briefly, untraced and traced,
// and checks the result line carries every metric.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live stack")
	}
	// A short warm-up keeps the test quick; the workload is otherwise
	// the benchmark's own.
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append([]workload(nil), workloads...)
	for i := range workloads {
		workloads[i].warmup = 100 * time.Millisecond
	}
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "serve-hot", "--seed", "2", "--seconds", "1", "--trace", c.trace,
			"--out-dir", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s\n%s", c.trace, code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", c.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(c.defs) {
			t.Fatalf("trace %s: result %+v", c.trace, res)
		}
		for _, d := range c.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or with unit %q", c.trace, d.name, m.Unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "serve-hot", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0, want an error", args)
		}
		if out.Len() != 0 && strings.Contains(out.String(), "{") {
			t.Errorf("%v: printed a result", args)
		}
	}
}
