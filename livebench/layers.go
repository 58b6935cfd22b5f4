package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"freshen/internal/core"
	"freshen/internal/fleet"
	"freshen/internal/freshness"
	"freshen/internal/schedule"
	"freshen/internal/solver"
)

// perLayer are the traced run's metrics, one or more per layer. The
// README maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{"httpmirror.handler_us.p50", "us", "lower"},
	{"httpmirror.handler_us.p99", "us", "lower"},
	{"nethttp.overhead_us.p50", "us", "lower"},
	{"resilience.shed_frac", "ratio", "lower"},
	{"loadgen.lateness_ms.p99", "ms", "lower"},
	{"httpmirror.step_ms.p50", "ms", "lower"},
	{"httpmirror.step_ms.p99", "ms", "lower"},
	{"httpmirror.step_ms.max", "ms", "lower"},
	{"httpmirror.replan_step_ms.p50", "ms", "lower"},
	{"refresh.done_frac", "ratio", "higher"},
	{"refresh.transfer_frac", "ratio", "higher"},
	{"source.rtt_us.p50", "us", "lower"},
	{"source.rtt_us.p99", "us", "lower"},
	{"source.error_frac", "ratio", "lower"},
	{"source.calls_per_refresh", "count", "lower"},
	{"source.not_modified_frac", "ratio", "higher"},
	{"core.plan_ms", "ms", "lower"},
	{"schedule.iterator_ms", "ms", "lower"},
	{"core.pf_planned", "ratio", "higher"},
	{"core.pf_model_true", "ratio", "higher"},
	{"core.pf_optimal", "ratio", "higher"},
	{"estimate.lambda_rel_err", "ratio", "lower"},
	{"persist.append_us.p50", "us", "lower"},
	{"persist.append_us.p99", "us", "lower"},
	{"persist.commit_ms.p50", "ms", "lower"},
	{"persist.commit_ms.max", "ms", "lower"},
	{"obs.scrape_ms.p50", "ms", "lower"},
	{"obs.scrape_ms.p99", "ms", "lower"},
	{"fleet.router_us.p50", "us", "lower"},
	{"fleet.hop_us.p50", "us", "lower"},
	{"fleet.allocate_ms", "ms", "lower"},
	{"fleet.replans_per_period", "1/period", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_pause_p99_ms", "ms", "lower"},
}

// postCalls is how many times each post-window layer call is repeated;
// the median is reported.
const postCalls = 3

// layerCalls are the traced run's direct calls into the planning,
// estimation and fleet layers, made on the live mirrors after the
// window.
type layerCalls struct {
	planMs, iteratorMs, allocateMs    float64
	pfPlanned, pfModelTrue, pfOptimal float64
	lambdaRelErr                      float64
	shardHandlerUs                    durations // fleet: in-process shard handler samples
}

// timeMedian runs fn postCalls times and returns the median wall time
// in milliseconds, or fn's first error.
func timeMedian(fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < postCalls; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms), nil
}

// postWindowCalls times core.MakePlan, schedule.NewIterator and (for
// a fleet) fleet.Allocate on the live mirrors' state, and scores the
// live plan against the true change rates and access profile. For a
// fleet, planning and iterator times are summed over the shards: that
// is the work one re-level triggers.
func postWindowCalls(r *runResult) (layerCalls, error) {
	var lc layerCalls
	ms := r.st.mirrors()
	elems := make([][]freshness.Element, len(ms))
	plans := make([]core.Plan, len(ms))
	budgets := make([]float64, len(ms))
	for i, m := range ms {
		elems[i], plans[i], budgets[i] = m.Elements(), m.Plan(), m.Budget()
	}
	var err error
	lc.planMs, err = timeMedian(func() error {
		for i := range ms {
			if _, err := core.MakePlan(elems[i], planConfig(budgets[i])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return lc, fmt.Errorf("core.MakePlan: %w", err)
	}
	lc.iteratorMs, err = timeMedian(func() error {
		for i := range ms {
			if _, err := schedule.NewIterator(plans[i].Freqs, true, r.opt.seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return lc, fmt.Errorf("schedule.NewIterator: %w", err)
	}

	// Map every mirror's local element back to its global object.
	global := func(shard, local int) int { return local }
	if r.st.fleet != nil {
		place := r.st.fleet.Placement()
		global = func(shard, local int) int { return place.Globals(shard)[local] }
	}
	truth := make([]freshness.Element, r.w.n)
	for i := range truth {
		truth[i] = freshness.Element{ID: i, Lambda: r.in.lambdas[i], AccessProb: r.in.access[i], Size: 1}
	}
	freqs := make([]float64, r.w.n)
	var relErr float64
	for s := range ms {
		for l, e := range elems[s] {
			g := global(s, l)
			freqs[g] = plans[s].Freqs[l]
			relErr += math.Abs(e.Lambda-r.in.lambdas[g]) / r.in.lambdas[g]
		}
	}
	lc.lambdaRelErr = relErr / float64(r.w.n)
	if lc.pfModelTrue, err = freshness.Perceived(freshness.FixedOrder{}, truth, freqs); err != nil {
		return lc, fmt.Errorf("freshness.Perceived: %w", err)
	}
	opt, err := solver.WaterFill(solver.Problem{Elements: truth, Bandwidth: r.w.budget})
	if err != nil {
		return lc, fmt.Errorf("solver.WaterFill: %w", err)
	}
	lc.pfOptimal = opt.Perceived

	if r.st.fleet == nil {
		lc.pfPlanned = plans[0].Perceived
		return lc, nil
	}
	fl := r.st.fleet
	if a, err := fl.Allocation(); err == nil {
		lc.pfPlanned = a.Perceived
	}
	healthy := make([]bool, len(ms))
	traffic := make([]float64, len(ms))
	for i := range ms {
		healthy[i] = true
		traffic[i] = float64(r.c1.accesses[i] - r.c0.accesses[i])
	}
	lc.allocateMs, err = timeMedian(func() error {
		_, err := fleet.Allocate(ms, healthy, traffic, r.w.budget, freshness.FixedOrder{}, 0)
		return err
	})
	if err != nil {
		return lc, fmt.Errorf("fleet.Allocate: %w", err)
	}
	lc.shardHandlerUs = sampleShardHandlers(r, fl)
	return lc, nil
}

// shardHandlerSamples is how many reads sampleShardHandlers replays.
const shardHandlerSamples = 2000

// sampleShardHandlers times each owning shard's mirror handler
// in-process on reads from the workload's sequence, with no network in
// between: the part of a routed read that is the shard's own work.
func sampleShardHandlers(r *runResult, fl *fleet.Fleet) durations {
	place := fl.Placement()
	handlers := make([]http.Handler, r.w.shards)
	for i := range handlers {
		handlers[i] = fl.Shard(i).Mirror().Handler()
	}
	var us durations
	for k := int64(0); k < shardHandlerSamples; k++ {
		gid := r.in.readID(k)
		s := place.ShardOf(gid)
		req := httptest.NewRequest(http.MethodGet, "/object/"+strconv.Itoa(place.Local(gid)), nil)
		rec := httptest.NewRecorder()
		start := clock()
		handlers[s].ServeHTTP(rec, req)
		us.add(float64(clock()-start) / 1e3)
	}
	return us
}

// inWindow keeps the spans that started inside the measured window.
func (r *runResult) inWindow(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.start >= r.win0 && s.start < r.win1 {
			out = append(out, s)
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run, prints
// the self-time summary and writes the span file to spanPath. notes
// lists the metrics this workload cannot measure, with the reason;
// they read 0.
func (r *runResult) layerMetrics(spanPath string, out io.Writer) (map[string]float64, []string, error) {
	all := r.tr.snapshot()
	self := link(all)
	if err := writeSpans(spanPath, all, self); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(all), spanPath)
	fmt.Fprintln(out, "span self time over the whole traced run:")
	fmt.Fprintf(out, "  %-24s %9s %12s %12s %12s %12s\n", "name", "count", "total_ms", "self_ms", "children_ms", "p50_us")
	for _, ts := range summarize(all, self) {
		fmt.Fprintf(out, "  %-24s %9d %12.1f %12.1f %12.1f %12.1f\n", ts.name, ts.count, ts.totalMs, ts.selfMs, ts.childMs, ts.medianUs)
	}

	spans := r.inWindow(all)
	by := map[string]durations{} // durations in µs by span name
	serverUs := map[int64]float64{}
	var srcCalls, srcErrs, condCalls, notModified float64
	var replanStepMs durations
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		by[s.name] = append(by[s.name], us)
		switch s.name {
		case "handler", "router":
			if s.req >= 0 {
				serverUs[s.req] = us
			}
		case "source.fetch", "source.version", "source.fetch_if_newer":
			by["source"] = append(by["source"], us)
			srcCalls++
			if s.flags&flagErr != 0 {
				srcErrs++
			}
			if s.name == "source.fetch_if_newer" {
				condCalls++
				if s.flags&flagNotModified != 0 {
					notModified++
				}
			}
		case "step":
			if s.flags&flagReplan != 0 {
				replanStepMs.add(us / 1e3)
			}
		}
	}
	var overhead durations
	for _, s := range spans {
		if s.name == "read" {
			if child, ok := serverUs[s.req]; ok {
				overhead.add(float64(s.dur())/1e3 - child)
			}
		}
	}

	d0, d1 := r.c0, r.c1
	fetches := float64(d1.fetches - d0.fetches)
	periods := d1.now - d0.now
	rt := runtimeDelta(r.rt0, r.rt1, r.windowSec())
	lc := r.layers
	v := map[string]float64{
		"nethttp.overhead_us.p50":       overhead.q(0.5),
		"resilience.shed_frac":          ratio(float64(d1.shed-d0.shed), float64(d1.admitted-d0.admitted+d1.shed-d0.shed)),
		"loadgen.lateness_ms.p99":       quantile(append([]float64(nil), r.open.latenessMs...), 0.99),
		"httpmirror.step_ms.p50":        by["step"].q(0.5) / 1e3,
		"httpmirror.step_ms.p99":        by["step"].q(0.99) / 1e3,
		"httpmirror.step_ms.max":        by["step"].max() / 1e3,
		"httpmirror.replan_step_ms.p50": replanStepMs.q(0.5),
		"refresh.done_frac":             ratio(fetches, d1.bandwidth*periods),
		"refresh.transfer_frac":         ratio(float64(d1.transfers-d0.transfers), fetches),
		"source.rtt_us.p50":             by["source"].q(0.5),
		"source.rtt_us.p99":             by["source"].q(0.99),
		"source.error_frac":             ratio(srcErrs, srcCalls),
		"source.calls_per_refresh":      ratio(srcCalls, fetches),
		"source.not_modified_frac":      ratio(notModified, condCalls),
		"core.plan_ms":                  lc.planMs,
		"schedule.iterator_ms":          lc.iteratorMs,
		"core.pf_planned":               lc.pfPlanned,
		"core.pf_model_true":            lc.pfModelTrue,
		"core.pf_optimal":               lc.pfOptimal,
		"estimate.lambda_rel_err":       lc.lambdaRelErr,
		"persist.append_us.p50":         by["persist.append"].q(0.5),
		"persist.append_us.p99":         by["persist.append"].q(0.99),
		"persist.commit_ms.p50":         by["persist.commit"].q(0.5) / 1e3,
		"persist.commit_ms.max":         by["persist.commit"].max() / 1e3,
		"obs.scrape_ms.p50":             quantile(append([]float64(nil), r.samples.scrapeMs...), 0.5),
		"obs.scrape_ms.p99":             quantile(append([]float64(nil), r.samples.scrapeMs...), 0.99),
		"fleet.replans_per_period":      ratio(float64(d1.replans-d0.replans), periods),
		"runtime.alloc_mb_per_s":        rt.allocMBs,
		"runtime.gc_cpu_frac":           rt.gcCPUFrac,
		"runtime.gc_pause_p99_ms":       rt.pauseP99Ms,
	}
	var notes []string
	if r.st.fleet == nil {
		v["httpmirror.handler_us.p50"] = by["handler"].q(0.5)
		v["httpmirror.handler_us.p99"] = by["handler"].q(0.99)
		notes = append(notes, "fleet.router_us.p50, fleet.hop_us.p50, fleet.allocate_ms: this workload runs no fleet")
	} else {
		// The shard handlers sit behind the router's proxy on listeners
		// the fleet owns, so their time is sampled in-process instead.
		v["httpmirror.handler_us.p50"] = lc.shardHandlerUs.q(0.5)
		v["httpmirror.handler_us.p99"] = lc.shardHandlerUs.q(0.99)
		v["fleet.router_us.p50"] = by["router"].q(0.5)
		v["fleet.hop_us.p50"] = by["router"].q(0.5) - lc.shardHandlerUs.q(0.5)
		v["fleet.allocate_ms"] = lc.allocateMs
		notes = append(notes,
			"httpmirror.step_ms.*, httpmirror.replan_step_ms.p50: each shard runs Mirror.Run inside fleet.Shard, so its Step calls cannot be driven or timed from outside",
			"httpmirror.handler_us.*: sampled by calling each shard mirror's Handler in-process after the window, not on the routed reads")
	}
	return v, notes, nil
}
