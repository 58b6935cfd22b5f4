package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"freshen/internal/core"
	"freshen/internal/fleet"
	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/partition"
	"freshen/internal/persist"
	"freshen/internal/solver"
)

// freshend's flag defaults, which the stack is configured from: exact
// strategy, history estimator, no exploration, 3 upstream attempts
// with a 5 s timeout, breaker after 5 failures with a 2-period
// cooldown, quarantine after 3, recovery probes every period, and
// replans and snapshots every 5 periods.
const (
	defaultPartitions   = 100
	defaultIterations   = 10
	defaultCadence      = 5
	defaultUpAttempts   = 3
	defaultUpTimeout    = 5 * time.Second
	defaultBreakAfter   = 5
	defaultBreakCool    = 2
	defaultQuarantine   = 3
	defaultProbeEvery   = 1
	defaultSeed         = 1
	defaultReadTimeout  = 10 * time.Second
	defaultWriteTimeout = 30 * time.Second
)

// planConfig is the planner configuration freshend builds from its
// defaults, at the given budget.
func planConfig(budget float64) core.Config {
	return core.Config{
		Bandwidth:        budget,
		Strategy:         core.StrategyExact,
		Key:              partition.KeyPF,
		NumPartitions:    defaultPartitions,
		KMeansIterations: defaultIterations,
		Allocation:       partition.FBA,
	}
}

// mirrorConfig is the per-mirror configuration freshend builds from its
// defaults (upstream, persistence and metrics are set by the caller).
func mirrorConfig(w workload) httpmirror.Config {
	cfg := httpmirror.Config{
		Plan:          planConfig(w.budget),
		ReplanEvery:   defaultCadence,
		SnapshotEvery: defaultCadence,
		Estimator:     "history",
		Fault: httpmirror.FaultPolicy{
			BreakerThreshold: defaultBreakAfter,
			BreakerCooldown:  defaultBreakCool,
			QuarantineAfter:  defaultQuarantine,
			ProbeEvery:       defaultProbeEvery,
		},
		Seed: defaultSeed,
	}
	if w.replanEvery > 0 {
		cfg.ReplanEvery = w.replanEvery
	}
	return cfg
}

func newSourceClient(url string) *httpmirror.SourceClient {
	c := httpmirror.NewSourceClient(url, nil)
	c.SetRetryPolicy(httpmirror.RetryPolicy{MaxAttempts: defaultUpAttempts, Timeout: defaultUpTimeout})
	return c
}

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadTimeout: defaultReadTimeout, WriteTimeout: defaultWriteTimeout},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, drops open connections and waits for the
// serving goroutine.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// stack is one built system under test: the simulated origin and its
// clock, the mirror (or the fleet and its supervisor), the refresh
// loop, and the public listener the readers talk to.
type stack struct {
	w        workload
	src      *httpmirror.SimulatedSource
	srcSrv   *server
	mirror   *httpmirror.Mirror // single-mirror workloads
	fleet    *fleet.Fleet       // fleet workloads
	store    *persist.Store
	public   *server
	stateDir string
	setup    time.Duration // build start to the first successful read

	stop func() // stops the clock, refresh loop and supervisor; waits for them

	// Written by the single mirror's refresh loop only, and read once
	// stop has waited for it.
	loopFails int   // times the refresh loop failed
	loopErr   error // the first of those failures
}

// mirrors lists the live mirrors: the one mirror, or every shard's.
func (s *stack) mirrors() []*httpmirror.Mirror {
	if s.mirror != nil {
		return []*httpmirror.Mirror{s.mirror}
	}
	out := make([]*httpmirror.Mirror, s.w.shards)
	for i := range out {
		out[i] = s.fleet.Shard(i).Mirror()
	}
	return out
}

// build starts the origin and then times the system's set-up: the
// mirror or fleet boot (catalog fetch, seeding every copy, first plan,
// persist open and boot fsync; for a fleet every shard start and the
// first allocation) up to the first successful read on the public
// listener. With tr non-nil the stack runs with the trace wrappers
// and, for a single mirror, with the traced Step driver instead of
// Mirror.Run.
func build(w workload, in *inputs, stateDir string, tr *tracer) (*stack, error) {
	src, err := httpmirror.NewSimulatedSource(in.lambdas, nil, in.srcSeed)
	if err != nil {
		return nil, err
	}
	srcSrv, err := serve(src.Handler())
	if err != nil {
		return nil, err
	}
	s := &stack{w: w, src: src, srcSrv: srcSrv, stateDir: stateDir}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = func() {
		cancel()
		wg.Wait()
	}
	// The origin's clock, ticking at a hundredth of a period as
	// cmd/mocksource's does.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		t := time.NewTicker(period / 100)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				src.Advance(time.Since(start).Seconds() / period.Seconds())
			}
		}
	}()

	t0 := time.Now()
	if err := s.boot(ctx, &wg, tr); err != nil {
		s.close()
		return nil, err
	}
	if err := firstRead(s.public.url); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// boot builds the mirror or the fleet, starts its loops on wg and
// opens the public listener.
func (s *stack) boot(ctx context.Context, wg *sync.WaitGroup, tr *tracer) error {
	reg := obs.NewRegistry()
	solver.Instrument(reg)
	mcfg := mirrorConfig(s.w)
	if s.w.shards > 1 {
		fcfg := fleet.Config{
			Shards:   s.w.shards,
			Budget:   s.w.budget,
			Upstream: newSourceClient(s.srcSrv.url),
			ShardUpstream: func(int) httpmirror.Source {
				return tr.source(newSourceClient(s.srcSrv.url))
			},
			Mirror:   mcfg,
			Period:   period,
			StateDir: s.stateDir,
			Metrics:  reg,
		}
		if tr != nil {
			fcfg.WrapStore = func(_ int, st *persist.Store) persist.Storer { return tr.store(st) }
		}
		fl, err := fleet.New(ctx, fcfg)
		if err != nil {
			return err
		}
		s.fleet = fl
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.Run(ctx)
		}()
		pub, err := serve(tr.handler("router", fl.Handler()))
		if err != nil {
			return err
		}
		s.public = pub
		return nil
	}

	store, err := persist.Open(s.stateDir)
	if err != nil {
		return err
	}
	s.store = store
	store.Instrument(reg)
	mcfg.Upstream = tr.source(newSourceClient(s.srcSrv.url))
	mcfg.Persist = tr.store(store)
	mcfg.Metrics = reg
	m, err := httpmirror.New(ctx, mcfg)
	if err != nil {
		return err
	}
	s.mirror = m
	run := func(ctx context.Context) error { return m.Run(ctx, period) }
	if tr != nil {
		run = func(ctx context.Context) error { return tr.driveSteps(ctx, m) }
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.refreshLoop(ctx, run)
	}()
	pub, err := serve(tr.handler("handler", m.Handler()))
	if err != nil {
		return err
	}
	s.public = pub
	return nil
}

// refreshLoop runs the refresh loop as freshend does: when run (Mirror.Run
// or the traced Step driver) fails, the failure is recorded and the loop
// restarts after one period. close reports the failures, so a run whose
// mirror stopped refreshing for a while fails instead of measuring it.
func (s *stack) refreshLoop(ctx context.Context, run func(context.Context) error) {
	for {
		err := run(ctx)
		if err == nil {
			return
		}
		s.loopFails++
		if s.loopErr == nil {
			s.loopErr = err
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(period):
		}
	}
}

// awaitReady blocks until every mirror reports ready and, for a fleet,
// the supervisor holds every shard healthy. A cold mirror with
// persistence is not ready until its first snapshot, and the fleet
// router refuses a shard's keyspace with 503 while its readiness probe
// fails, so a freshly booted fleet sheds every read from its first
// health probes until the shards' first snapshots.
func (s *stack) awaitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := true
		for _, m := range s.mirrors() {
			ready = ready && m.Readiness().Ready
		}
		if s.fleet != nil {
			for _, h := range s.fleet.Healthy() {
				ready = ready && h
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after 60s", s.w.name)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// firstRead polls the public listener until one object read succeeds.
func firstRead(url string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/object/0")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("first read: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close tears the stack down: loops first, then listeners, the fleet
// or the store, and finally the state directory.
func (s *stack) close() error {
	s.stop()
	var errs []error
	if s.public != nil {
		s.public.close()
	}
	if s.fleet != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.fleet.Close(ctx))
		cancel()
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	s.srcSrv.close()
	http.DefaultClient.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.stateDir))
	if s.loopFails > 0 {
		errs = append(errs, fmt.Errorf("refresh loop failed %d times, first: %w", s.loopFails, s.loopErr))
	}
	return errors.Join(errs...)
}

// newStateDir makes a fresh, empty persistence directory under root.
func newStateDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "state-")
}

// stateRoot is where a run keeps its persistence directories.
func stateRoot(outDir string) string { return filepath.Join(outDir, "state") }
