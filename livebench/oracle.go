package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// versioner is the ground truth the oracle scores against:
// httpmirror.SimulatedSource in a run, a fake in tests.
type versioner interface {
	Version(id int) (int, error)
}

// oracle checks every served object and scores its freshness against
// the source.
//
// A 200 response must carry the body "object <id> version <v>" for its
// X-Version v; v must not exceed the source's current version; and the
// versions served for one id must never go backwards: a read that
// starts after another read of the same id has completed must see at
// least that read's version. A read is fresh when v equals the
// source's version at the moment the response has been received.
//
// Timing bias: the source applies changes on its clock tick (one
// hundredth of a period), so a change becomes visible to the mirror
// and to this oracle up to one tick late, and a change that lands
// between the mirror serving a read and the oracle checking it counts
// as stale. Both effects are of the order of λ times the tick or the
// read latency, well under one percent at these rates.
type oracle struct {
	src versioner

	mu sync.Mutex
	// maxVer is the highest version served so far for each id and
	// maxAt the earliest completion time of a read that returned it.
	maxVer     []int
	maxAt      []int64
	violations int
	first      []string // the first few violation messages
}

func newOracle(src versioner, n int) *oracle {
	o := &oracle{src: src, maxVer: make([]int, n), maxAt: make([]int64, n)}
	for i := range o.maxVer {
		o.maxVer[i] = -1
		o.maxAt[i] = math.MaxInt64
	}
	return o
}

// check scores one 200 response for id, served with version ver and
// body, from a read sent at start that completed at done (both on the
// benchmark's monotonic clock). It reports whether the copy was fresh,
// or an error describing the violated output check.
func (o *oracle) check(id, ver int, body []byte, start, done int64) (bool, error) {
	var want [64]byte
	exp := strconv.AppendInt(append(want[:0], "object "...), int64(id), 10)
	exp = strconv.AppendInt(append(exp, " version "...), int64(ver), 10)
	if !bytes.Equal(body, exp) {
		return false, o.fail(fmt.Errorf("object %d: body %q does not match X-Version %d", id, body, ver))
	}
	cur, err := o.src.Version(id)
	if err != nil {
		return false, o.fail(fmt.Errorf("object %d: %v", id, err))
	}
	if ver > cur {
		return false, o.fail(fmt.Errorf("object %d: served version %d is ahead of the source's %d", id, ver, cur))
	}
	o.mu.Lock()
	regressed := ver < o.maxVer[id] && start > o.maxAt[id]
	prev := o.maxVer[id]
	switch {
	case ver > o.maxVer[id]:
		o.maxVer[id], o.maxAt[id] = ver, done
	case ver == o.maxVer[id] && done < o.maxAt[id]:
		o.maxAt[id] = done
	}
	o.mu.Unlock()
	if regressed {
		return false, o.fail(fmt.Errorf("object %d: version went back from %d to %d", id, prev, ver))
	}
	return ver == cur, nil
}

// fail records a violation and returns it.
func (o *oracle) fail(err error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.violations++
	if len(o.first) < 5 {
		o.first = append(o.first, err.Error())
	}
	return err
}

// report returns the violation count and the first few messages.
func (o *oracle) report() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.violations, append([]string(nil), o.first...)
}
