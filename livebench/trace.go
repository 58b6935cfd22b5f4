package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/persist"
)

// epoch anchors the benchmark's monotonic clock.
var epoch = time.Now()

// clock is nanoseconds since epoch on the monotonic clock.
func clock() int64 { return int64(time.Since(epoch)) }

// reqHeader carries a read's request id from the generator to the
// server-side spans, linking a handler span to the read that caused it.
const reqHeader = "X-Bench-Req"

// Span flags.
const (
	flagErr         = 1 << iota // the call returned an error
	flagNotModified             // a conditional fetch answered 304
	flagReplan                  // a Step in which Status().Replans advanced
)

// span is one timed call at a layer boundary. parent is the id of the
// span that caused it (0 for none); req is the read's request id for
// spans on the read path (-1 otherwise).
type span struct {
	id, parent uint64
	req        int64
	name       string
	start, end int64
	flags      uint8
}

func (s span) dur() int64 { return s.end - s.start }

// tracer times calls into each layer from outside: it wraps the
// mirror's Source and Storer, mounts a span around the served handler,
// and drives Mirror.Step itself. Spans stay in memory until the run
// ends. A nil *tracer is the untraced run: every wrapper returns its
// argument unchanged.
type tracer struct {
	nextID  atomic.Uint64
	curStep atomic.Uint64 // id of the Step span in progress; 0 outside one

	mu    sync.Mutex
	spans []span
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// upstream is the source surface the mirror uses against an origin:
// the Source protocol plus conditional fetches.
type upstream interface {
	httpmirror.Source
	httpmirror.ConditionalSource
}

// tracedSource times every call into an httpmirror.SourceClient. It
// implements ConditionalSource, as the client does, and not
// UpstreamHealth, as the client does not, so the mirror speaks the same
// protocol traced and untraced.
type tracedSource struct {
	inner upstream
	t     *tracer
}

var (
	_ httpmirror.Source            = (*tracedSource)(nil)
	_ httpmirror.ConditionalSource = (*tracedSource)(nil)
)

// source wraps a source client for tracing.
func (t *tracer) source(c *httpmirror.SourceClient) httpmirror.Source {
	if t == nil {
		return c
	}
	return &tracedSource{inner: c, t: t}
}

func (s *tracedSource) span(name string, start int64, err error, flags uint8) {
	if err != nil {
		flags |= flagErr
	}
	s.t.record(span{id: s.t.newID(), parent: s.t.curStep.Load(), req: -1, name: name, start: start, end: clock(), flags: flags})
}

func (s *tracedSource) Catalog(ctx context.Context) ([]httpmirror.CatalogEntry, error) {
	start := clock()
	c, err := s.inner.Catalog(ctx)
	s.span("source.catalog", start, err, 0)
	return c, err
}

func (s *tracedSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	start := clock()
	b, v, err := s.inner.Fetch(ctx, id)
	s.span("source.fetch", start, err, 0)
	return b, v, err
}

func (s *tracedSource) Version(ctx context.Context, id int) (int, error) {
	start := clock()
	v, err := s.inner.Version(ctx, id)
	s.span("source.version", start, err, 0)
	return v, err
}

func (s *tracedSource) FetchIfNewer(ctx context.Context, id, have int) ([]byte, int, bool, error) {
	start := clock()
	b, v, nm, err := s.inner.FetchIfNewer(ctx, id, have)
	var flags uint8
	if nm {
		flags = flagNotModified
	}
	s.span("source.fetch_if_newer", start, err, flags)
	return b, v, nm, err
}

func (s *tracedSource) Retries() int64  { return s.inner.Retries() }
func (s *tracedSource) Failures() int64 { return s.inner.Failures() }

// tracedStore times the persist.Storer calls the mirror makes.
type tracedStore struct {
	inner persist.Storer
	t     *tracer
}

// store wraps a persist store for tracing.
func (t *tracer) store(s *persist.Store) persist.Storer {
	if t == nil {
		return s
	}
	return &tracedStore{inner: s, t: t}
}

func (s *tracedStore) span(name string, start int64, err error) {
	var flags uint8
	if err != nil {
		flags = flagErr
	}
	s.t.record(span{id: s.t.newID(), parent: s.t.curStep.Load(), req: -1, name: name, start: start, end: clock(), flags: flags})
}

func (s *tracedStore) Recovery() persist.RecoveryResult { return s.inner.Recovery() }

func (s *tracedStore) Append(r persist.Record) error {
	start := clock()
	err := s.inner.Append(r)
	s.span("persist.append", start, err)
	return err
}

func (s *tracedStore) Commit(snap *persist.Snapshot) error {
	start := clock()
	err := s.inner.Commit(snap)
	s.span("persist.commit", start, err)
	return err
}

func (s *tracedStore) Sync() error {
	start := clock()
	err := s.inner.Sync()
	s.span("persist.sync", start, err)
	return err
}

// handler mounts a span named name around h; the read's request id
// comes from reqHeader.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := clock()
		h.ServeHTTP(w, r)
		end := clock()
		req := int64(-1)
		if v := r.Header[reqHeader]; len(v) == 1 {
			if k, err := strconv.ParseInt(v[0], 10, 64); err == nil {
				req = k
			}
		}
		t.record(span{id: t.newID(), req: req, name: name, start: start, end: end})
	})
}

// driveSteps replaces Mirror.Run in the traced run: the same tick rule
// (a tick every hundredth of a period, the clock advanced to base plus
// elapsed wall time) and, like Run, it returns the first error a Step
// returns; every Step call is timed and flagged when it replanned.
// Source and persist calls made inside a Step become its children.
func (t *tracer) driveSteps(ctx context.Context, m *httpmirror.Mirror) error {
	base := m.Status().Now
	start := time.Now()
	tick := time.NewTicker(period / 100)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		now := base + time.Since(start).Seconds()/period.Seconds()
		replans := m.Status().Replans
		id := t.newID()
		t.curStep.Store(id)
		s := clock()
		_, err := m.Step(now)
		e := clock()
		t.curStep.Store(0)
		var flags uint8
		if err != nil {
			flags |= flagErr
		}
		if m.Status().Replans != replans {
			flags |= flagReplan
		}
		t.record(span{id: id, req: -1, name: "step", start: s, end: e, flags: flags})
		if err != nil {
			return err
		}
	}
}

// traceSummary aggregates spans by name: how many, their total time and
// their self time (duration minus the time their children cover).
type traceSummary struct {
	name              string
	count             int
	totalMs, selfMs   float64
	childMs, medianUs float64
}

// link resolves read-path parents (a server span's parent is the read
// with the same request id) and returns each span's self time in
// nanoseconds, indexed like spans.
func link(spans []span) []int64 {
	readOf := make(map[int64]uint64)
	for _, s := range spans {
		if s.name == "read" {
			readOf[s.req] = s.id
		}
	}
	index := make(map[uint64]int, len(spans))
	for i := range spans {
		index[spans[i].id] = i
		if spans[i].parent == 0 && spans[i].req >= 0 && spans[i].name != "read" {
			spans[i].parent = readOf[spans[i].req]
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if p, ok := index[s.parent]; ok && s.parent != 0 {
			// A child covers the part of its own interval that lies
			// inside its parent's.
			lo, hi := max(s.start, spans[p].start), min(s.end, spans[p].end)
			if hi > lo {
				self[p] -= hi - lo
			}
		}
	}
	return self
}

// summarize groups spans by name.
func summarize(spans []span, self []int64) []traceSummary {
	by := map[string]*traceSummary{}
	durs := map[string][]float64{}
	for i, s := range spans {
		ts := by[s.name]
		if ts == nil {
			ts = &traceSummary{name: s.name}
			by[s.name] = ts
		}
		ts.count++
		ts.totalMs += float64(s.dur()) / 1e6
		ts.selfMs += float64(self[i]) / 1e6
		durs[s.name] = append(durs[s.name], float64(s.dur())/1e3)
	}
	out := make([]traceSummary, 0, len(by))
	for name, ts := range by {
		ts.childMs = ts.totalMs - ts.selfMs
		ts.medianUs = median(durs[name])
		out = append(out, *ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalMs > out[j].totalMs })
	return out
}

// writeSpans writes the span file: a header line, then one
// tab-separated line per span.
func writeSpans(path string, spans []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span_id\tparent_id\treq_id\tname\tstart_ns\tend_ns\tself_ns\tflags")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end, self[i], s.flags)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
