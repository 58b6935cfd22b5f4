package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// latencyLimit is the fixed per-read limit: a read that takes longer,
// counted from its due time, fails.
const latencyLimit = 250 * time.Millisecond

// loadgen reads objects over HTTP from a fixed set of goroutines, each
// with its own keep-alive connection, and checks every response with
// the oracle.
type loadgen struct {
	client  *http.Client
	base    string   // the public listener's URL, set once the stack is built
	paths   []string // per object id
	in      *inputs
	orc     *oracle
	tr      *tracer
	clients int
	next    atomic.Int64 // index of the next read in the input sequence
}

// newLoadgen makes a generator before the stack exists, so that its
// memory counts in the heap baseline; set base before the first read.
func newLoadgen(in *inputs, orc *oracle, tr *tracer, clients int) *loadgen {
	paths := make([]string, len(in.lambdas))
	for i := range paths {
		paths[i] = "/object/" + strconv.Itoa(i)
	}
	return &loadgen{
		client: &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     clients,
				MaxIdleConnsPerHost: clients,
				DisableCompression:  true,
			},
		},
		paths:   paths,
		in:      in,
		orc:     orc,
		tr:      tr,
		clients: clients,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// outcome is the result of one read.
type outcome struct {
	ok, fresh bool
	shed      bool  // 503 from admission control
	broken    bool  // an output check failed
	sent      int64 // clock() when the request went out
	done      int64 // clock() when the body had been read
}

// read performs the k-th read of the input sequence.
func (g *loadgen) read(k int64, buf *bytes.Buffer) outcome {
	id := g.in.readID(k)
	req, err := http.NewRequest(http.MethodGet, g.base+g.paths[id], nil)
	if err != nil {
		return outcome{sent: clock(), done: clock()}
	}
	if g.tr != nil {
		req.Header[reqHeader] = []string{strconv.FormatInt(k, 10)}
	}
	o := outcome{sent: clock()}
	resp, err := g.client.Do(req)
	if err != nil {
		o.done = clock()
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.done = clock()
	if g.tr != nil {
		g.tr.record(span{id: g.tr.newID(), req: k, name: "read", start: o.sent, end: o.done})
	}
	if err != nil {
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.shed = resp.StatusCode == http.StatusServiceUnavailable
		return o
	}
	ver, err := strconv.Atoi(resp.Header.Get("X-Version"))
	if err != nil {
		g.orc.fail(fmt.Errorf("object %d: bad X-Version %q", id, resp.Header.Get("X-Version")))
		o.broken = true
		return o
	}
	fresh, err := g.orc.check(id, ver, buf.Bytes(), o.sent, o.done)
	if err != nil {
		o.broken = true
		return o
	}
	o.ok, o.fresh = true, fresh
	return o
}

// openResult is what one open-loop phase measured. The per-read slices
// are indexed by read and allocated in full before the phase, so they
// do not grow while the phase's live heap is sampled.
type openResult struct {
	start int64 // clock() at which read 0 was due
	openCounts
	latMs      []float64 // per read, from its due time; failures count as at least the limit
	dueNs      []int64   // due time of each read, from the window start
	latenessMs []float64 // send time minus due time
	served     []served  // what each read got
}

// openCounts count an open-loop phase's reads by outcome.
type openCounts struct {
	due, ok, failed, shed, broken, fresh int64
}

// newOpenResult allocates the result of an open-loop phase of rate
// reads per second for dur.
func newOpenResult(rate float64, dur time.Duration) *openResult {
	n := int64(rate * dur.Seconds())
	return &openResult{
		latMs:      make([]float64, n),
		dueNs:      make([]int64, n),
		latenessMs: make([]float64, n),
		served:     make([]served, n),
	}
}

// served is what one read got.
type served uint8

const (
	servedNothing served = iota // the read failed
	servedStale
	servedFresh
)

func servedOf(ok, fresh bool) served {
	switch {
	case !ok:
		return servedNothing
	case fresh:
		return servedFresh
	}
	return servedStale
}

// openLoop issues rate reads per second into res, one per slot of its
// slices: read i is due at start + i/rate. Each goroutine takes the
// next due read, waits for its due time unless it is already late, and
// sends it; so when every connection is busy, reads queue and their
// wait counts in their latency.
func (g *loadgen) openLoop(rate float64, res *openResult) *openResult {
	total := int64(len(res.latMs))
	interval := float64(time.Second) / rate
	first := g.next.Load()
	g.next.Add(total)
	start := clock() + int64(time.Millisecond)
	var taken atomic.Int64
	parts := make([]openCounts, g.clients)
	var wg sync.WaitGroup
	for c := range parts {
		part := &parts[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := taken.Add(1) - 1
				if i >= total {
					return
				}
				due := start + int64(float64(i)*interval)
				waitUntil(due)
				o := g.read(first+i, &buf)
				lat := o.done - due
				ok := o.ok && lat <= int64(latencyLimit)
				part.due++
				switch {
				case ok:
					part.ok++
					if o.fresh {
						part.fresh++
					}
				default:
					part.failed++
					lat = max(lat, int64(latencyLimit))
				}
				if o.shed {
					part.shed++
				}
				if o.broken {
					part.broken++
				}
				res.latMs[i] = float64(lat) / 1e6
				res.dueNs[i] = due - start
				res.latenessMs[i] = float64(o.sent-due) / 1e6
				res.served[i] = servedOf(ok, o.fresh)
			}
		}()
	}
	wg.Wait()
	res.start = start
	for _, p := range parts {
		res.due += p.due
		res.ok += p.ok
		res.failed += p.failed
		res.shed += p.shed
		res.broken += p.broken
		res.fresh += p.fresh
	}
	return res
}

// waitUntil blocks until clock() reaches due. It sleeps in one
// nanosleep system call with the calling thread's timer slack cut to
// 1 ns: a runtime timer (time.Sleep) can overshoot by a millisecond
// when the process is idle, and the kernel's default 50 µs slack would
// add that much lateness to every read; spinning instead would burn the
// processor the mirror needs.
func waitUntil(due int64) {
	d := due - clock()
	if d <= 0 {
		return
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil)
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// closedLoop sends reads back to back on every connection for dur. It
// returns the phase's start on the benchmark clock and when each
// successful read completed, counted from that start.
func (g *loadgen) closedLoop(dur time.Duration) (start int64, doneNs []int64) {
	start = clock()
	stop := start + int64(dur)
	parts := make([][]int64, g.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for clock() < stop {
				if o := g.read(g.next.Add(1)-1, &buf); o.ok && o.done < stop {
					parts[c] = append(parts[c], o.done-start)
				}
			}
		}()
	}
	wg.Wait()
	for _, p := range parts {
		doneNs = append(doneNs, p...)
	}
	return start, doneNs
}
