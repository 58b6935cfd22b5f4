package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/persist"
)

// ShardConfig describes one shard of the fleet. The mirror template
// carries every tuning knob (plan strategy, estimator, fault policy,
// overload limits); the shard overrides Upstream, Persist, Metrics,
// and Logger with its own fault-isolated instances.
type ShardConfig struct {
	// Index is the shard's position in the placement.
	Index int
	// Placement is the fleet-wide object→shard map.
	Placement *Placement
	// Upstream is the global source; the shard sees only its slice.
	Upstream httpmirror.Source
	// Mirror is the configuration template; Plan.Bandwidth is the
	// shard's initial budget slice (the allocator re-levels it).
	Mirror httpmirror.Config
	// StateDir is the shard's own persist directory; "" disables
	// persistence.
	StateDir string
	// WrapStore, when non-nil, wraps the shard's freshly opened store
	// — the chaos hook persist.FaultStore slots into.
	WrapStore func(*persist.Store) persist.Storer
	// Period is the wall-clock length of one period.
	Period time.Duration
	// Logger receives the shard's events; nil discards them.
	Logger *slog.Logger
}

// Shard is one fault domain: its own mirror (solver, estimator,
// breaker, limiter), its own metrics registry and its own persist
// store. It has no listener: the router calls the mirror's handler
// in-process. Kill tears all of it down abruptly — simulating a crash
// — and Start afterwards recovers from the shard's persist directory
// exactly like a restarted daemon.
type Shard struct {
	cfg ShardConfig

	// life serializes Start, Kill and Stop. Start holds it through
	// recovery and seeding; mu guards only the published state below,
	// so readers never wait on a boot or a teardown.
	life sync.Mutex

	mu      sync.Mutex
	running bool
	mirror  *httpmirror.Mirror
	handler http.Handler // mirror.Handler(), built once per start
	store   *persist.Store
	cancel  context.CancelFunc
	done    chan struct{}
	kills   int
}

// NewShard validates the config; the shard starts dead.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("fleet: shard %d has no placement", cfg.Index)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Placement.K() {
		return nil, fmt.Errorf("fleet: shard index %d outside placement of %d", cfg.Index, cfg.Placement.K())
	}
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("fleet: shard %d has no upstream", cfg.Index)
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("fleet: shard %d period must be positive, got %v", cfg.Index, cfg.Period)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	return &Shard{cfg: cfg}, nil
}

// Start boots the shard: open (and recover from) its persist
// directory, build the mirror — seeding fetches ride ctx — and start
// its refresh loop. Starting a running shard is an error.
func (s *Shard) Start(ctx context.Context) error {
	s.life.Lock()
	defer s.life.Unlock()
	if s.Running() {
		return fmt.Errorf("fleet: shard %d already running", s.cfg.Index)
	}
	lg := obs.Component(s.cfg.Logger, fmt.Sprintf("shard-%d", s.cfg.Index))

	mcfg := s.cfg.Mirror
	mcfg.Upstream = newShardSource(s.cfg.Upstream, s.cfg.Placement, s.cfg.Index)
	mcfg.Logger = lg

	// Every shard gets its own registry, served by the router as
	// /shard/{i}/metrics, so family names never collide across the
	// fleet and a dead shard's scrape dies with it.
	reg := obs.NewRegistry()
	mcfg.Metrics = reg

	var store *persist.Store
	if s.cfg.StateDir != "" {
		var err error
		store, err = persist.Open(s.cfg.StateDir)
		if err != nil {
			return fmt.Errorf("fleet: shard %d state dir: %w", s.cfg.Index, err)
		}
		store.Instrument(reg)
		var storer persist.Storer = store
		if s.cfg.WrapStore != nil {
			storer = s.cfg.WrapStore(store)
		}
		mcfg.Persist = storer
	}

	m, err := httpmirror.New(ctx, mcfg)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return fmt.Errorf("fleet: shard %d mirror: %w", s.cfg.Index, err)
	}

	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Internal refresh-loop errors restart the loop, like the
		// standalone daemon: a shard keeps serving its copies through
		// anything short of Kill.
		for {
			err := m.Run(runCtx, s.cfg.Period)
			if err == nil {
				return
			}
			lg.Error("refresh loop failed; restarting", "error", err)
			select {
			case <-runCtx.Done():
				return
			case <-time.After(s.cfg.Period):
			}
		}
	}()

	s.mu.Lock()
	s.running = true
	s.mirror = m
	s.handler = m.Handler()
	s.store = store
	s.cancel = cancel
	s.done = done
	s.mu.Unlock()
	lg.Info("shard up", "objects", len(s.cfg.Placement.Globals(s.cfg.Index)), "budget", m.Budget())
	return nil
}

// Kill hard-kills the shard: the router stops dispatching to it at
// once, the refresh loop is cancelled, and the store closes without a
// final snapshot — whatever the last cadence snapshot plus journal
// captured is all a restart gets, exactly like a crash. A read the
// router dispatched just before the kill still completes from the
// mirror's last copies. Killing a dead shard is a no-op.
func (s *Shard) Kill() {
	s.life.Lock()
	defer s.life.Unlock()
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	store, cancel, done := s.store, s.cancel, s.done
	s.teardownLocked()
	s.kills++
	s.mu.Unlock()
	cancel()
	// The refresh loop finishes its in-flight step before the store
	// closes underneath it; Run's tick is Period/100, so this wait is
	// short and keeps the teardown race-free.
	<-done
	if store != nil {
		store.Close()
	}
}

// Stop shuts the shard down gracefully: refresh loop first, then a
// final snapshot, then the store. The shard serves until the store
// is closed.
func (s *Shard) Stop() error {
	s.life.Lock()
	defer s.life.Unlock()
	// Only lifecycle calls write the published fields, and they all
	// hold life, so reading them here needs no mu.
	if !s.running {
		return nil
	}
	s.cancel()
	<-s.done
	var firstErr error
	if err := s.mirror.FlushSnapshot(); err != nil {
		firstErr = fmt.Errorf("fleet: shard %d final snapshot: %w", s.cfg.Index, err)
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: shard %d store close: %w", s.cfg.Index, err)
		}
	}
	s.mu.Lock()
	s.teardownLocked()
	s.mu.Unlock()
	return firstErr
}

// teardownLocked clears the published state. Callers hold life and mu.
func (s *Shard) teardownLocked() {
	s.running = false
	s.mirror = nil
	s.handler = nil
	s.store = nil
	s.cancel = nil
	s.done = nil
}

// Running reports whether the shard is up.
func (s *Shard) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// Mirror returns the shard's live mirror, or nil while dead.
func (s *Shard) Mirror() *httpmirror.Mirror {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mirror
}

// serving returns the handler the router dispatches to, or nil while
// the shard is dead.
func (s *Shard) serving() http.Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handler
}

// ready is the shard's health predicate, the one its /readyz answers:
// running, and recovered or snapshotted at least once. A mirror's
// readiness only ever goes false→true, so a running shard that is
// ready stays ready until it is killed.
func (s *Shard) ready() bool {
	m := s.Mirror()
	return m != nil && m.Readiness().Ready
}

// Kills counts hard kills over the shard's lifetime.
func (s *Shard) Kills() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kills
}
