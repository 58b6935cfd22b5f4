package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/resilience"
)

// memSource is an in-process global source: object gid's body names
// its global id, so any mis-route surfaces as a body mismatch.
type memSource struct {
	mu       sync.Mutex
	sizes    []float64
	versions []int
	down     bool // Fetch and Version fail while set
}

func newMemSource(n int) *memSource {
	s := &memSource{sizes: make([]float64, n), versions: make([]int, n)}
	for i := range s.sizes {
		s.sizes[i] = 1
	}
	return s
}

func (s *memSource) Catalog(context.Context) ([]httpmirror.CatalogEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]httpmirror.CatalogEntry, len(s.sizes))
	for i := range out {
		out[i] = httpmirror.CatalogEntry{ID: i, Size: s.sizes[i]}
	}
	return out, nil
}

func (s *memSource) Fetch(_ context.Context, id int) ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, 0, fmt.Errorf("source down")
	}
	if id < 0 || id >= len(s.versions) {
		return nil, 0, fmt.Errorf("no object %d", id)
	}
	v := s.versions[id]
	return []byte(fmt.Sprintf("object-%d-v%d", id, v)), v, nil
}

func (s *memSource) Version(_ context.Context, id int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, fmt.Errorf("source down")
	}
	if id < 0 || id >= len(s.versions) {
		return 0, fmt.Errorf("no object %d", id)
	}
	return s.versions[id], nil
}

func (s *memSource) Bump(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[id]++
}

func (s *memSource) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

func (s *memSource) Retries() int64  { return 0 }
func (s *memSource) Failures() int64 { return 0 }

// newTestFleet builds and starts a small fleet over src, with the
// supervisor running and a router test server in front; everything
// stops at test cleanup.
func newTestFleet(t *testing.T, src httpmirror.Source, mutate func(*Config)) (*Fleet, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards:   3,
		Budget:   12,
		Upstream: src,
		Mirror: httpmirror.Config{
			Plan:        core.Config{Strategy: core.StrategyExact},
			ReplanEvery: 1,
			// Pin λ̂ at the prior so planned PF depends only on the
			// profile and budget — stable enough to assert recovery
			// against a pre-kill baseline.
			PriorLambda: 1,
			FloorLambda: 1,
			Seed:        7,
		},
		Period:     50 * time.Millisecond,
		AllocEvery: 50 * time.Millisecond,
		ChaosAdmin: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f, err := New(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		srv.Close()
		cancel()
		<-done
		closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer closeCancel()
		f.Close(closeCtx)
	})
	return f, srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetRoutesEveryObject(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)
	for gid := 0; gid < 24; gid++ {
		resp, err := http.Get(srv.URL + "/object/" + strconv.Itoa(gid))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("object %d: status %d", gid, resp.StatusCode)
		}
		want := fmt.Sprintf("object-%d-v0", gid)
		if string(body) != want {
			t.Fatalf("object %d: body %q, want %q (mis-route?)", gid, body, want)
		}
	}
	// Outside the catalog: a clean 404, not a proxy error.
	resp, err := http.Get(srv.URL + "/object/9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown object: status %d, want 404", resp.StatusCode)
	}
	if err := f.Placement().Validate(); err != nil {
		t.Error(err)
	}
}

func TestFleetStatusAndReadyz(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)

	st := f.Status()
	if st.Shards != 3 || st.Objects != 24 {
		t.Fatalf("status reports %d shards × %d objects", st.Shards, st.Objects)
	}
	if st.Mode != "full" {
		t.Errorf("fleet mode %q, want full", st.Mode)
	}
	if !st.AllocationOK {
		t.Error("boot allocation not certified")
	}

	// The HTTP document keeps the single-mirror contract fields.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{`"mode"`, `"mode_transitions"`, `"shard_status"`} {
		if !strings.Contains(string(body), key) {
			t.Errorf("/status missing %s", key)
		}
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz status %d with healthy shards", resp.StatusCode)
	}
}

func TestFleetDeadShardKeyspace(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)
	place := f.Placement()

	// Kill shard 1 through the chaos admin surface.
	resp, err := http.Post(srv.URL+"/fleet/kill?shard=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("kill: status %d", resp.StatusCode)
	}

	// The dead shard's keyspace answers 503 + jittered Retry-After,
	// fast; the survivors' keyspace keeps serving.
	client := &http.Client{Timeout: 2 * time.Second}
	for gid := 0; gid < 24; gid++ {
		start := time.Now()
		resp, err := client.Get(srv.URL + "/object/" + strconv.Itoa(gid))
		if err != nil {
			t.Fatalf("object %d: %v", gid, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if place.ShardOf(gid) == 1 {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("dead-shard object %d: status %d, want 503", gid, resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
				t.Errorf("dead-shard object %d: Retry-After %q", gid, resp.Header.Get("Retry-After"))
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("dead-shard object %d took %v — the router must answer immediately", gid, d)
			}
		} else {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor object %d: status %d body %q", gid, resp.StatusCode, body)
			}
		}
	}

	// The dead shard's slice went to the survivors, conserved.
	waitFor(t, 5*time.Second, "post-kill allocation", func() bool {
		a, err := f.Allocation()
		return err == nil && !a.Healthy[1]
	})
	a, err := f.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices[1] != 0 {
		t.Errorf("dead shard holds budget %v", a.Slices[1])
	}
	if err := a.Conserved(1e-6); err != nil {
		t.Error(err)
	}

	// Restart: the shard rejoins and gets a slice back.
	resp, err = http.Post(srv.URL+"/fleet/restart?shard=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("restart: status %d", resp.StatusCode)
	}
	waitFor(t, 10*time.Second, "shard 1 to rejoin with budget", func() bool {
		a, err := f.Allocation()
		return err == nil && a.Healthy[1] && a.Slices[1] > 0
	})
	a, _ = f.Allocation()
	if err := a.Conserved(1e-6); err != nil {
		t.Error(err)
	}
}

// TestPersistentBootHealth pins the health rule on a fresh persistent
// boot, the one case where a running shard is not ready: New admits
// every shard as healthy, the first health check drops a shard that
// has not snapshotted yet, and the first check after its snapshot
// brings it back. The checks are driven by hand, so the test pins the
// rule, not the cadence.
func TestPersistentBootHealth(t *testing.T) {
	ctx := context.Background()
	f, err := New(ctx, Config{
		Shards:   3,
		Budget:   12,
		Upstream: newMemSource(24),
		Mirror: httpmirror.Config{
			Plan:          core.Config{Strategy: core.StrategyExact},
			SnapshotEvery: 20,
			Seed:          7,
		},
		Period:   50 * time.Millisecond,
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(ctx) })
	ready := func(i int) bool { return f.Shard(i).Mirror().Readiness().Ready }

	for i, ok := range f.Healthy() {
		if !ok {
			t.Fatalf("shard %d not admitted as healthy at boot", i)
		}
		if ready(i) {
			t.Fatalf("shard %d ready before its first snapshot", i)
		}
	}
	if !f.checkHealth() {
		t.Fatal("first health check left the healthy set unchanged")
	}
	for i, ok := range f.Healthy() {
		if ok {
			t.Errorf("shard %d still healthy after the first check while not ready", i)
		}
	}

	waitFor(t, 10*time.Second, "every shard's first snapshot", func() bool {
		return ready(0) && ready(1) && ready(2)
	})
	if !f.checkHealth() {
		t.Fatal("the check after the first snapshots left the healthy set unchanged")
	}
	for i, ok := range f.Healthy() {
		if !ok {
			t.Errorf("shard %d not back in the healthy set once ready", i)
		}
	}
	if f.checkHealth() {
		t.Error("a check with nothing changed reported a change")
	}
}

// gatedSource, once armed, holds Fetch for the gated global ids until
// release is closed (or the fetch's context ends), counting the
// fetches it holds.
type gatedSource struct {
	*memSource
	gated   map[int]bool
	armed   atomic.Bool
	release chan struct{}
	held    atomic.Int64
}

func (s *gatedSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	if s.armed.Load() && s.gated[id] {
		s.held.Add(1)
		select {
		case <-s.release:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	return s.memSource.Fetch(ctx, id)
}

// TestRestartKeepsDeadKeyspaceFast restarts a killed shard over a
// source that stalls its seeding fetches. While the restart is stuck
// in seeding, the shard's keyspace and its /shard routes must keep
// answering 503 at once, and the rest of the router must keep
// serving.
func TestRestartKeepsDeadKeyspaceFast(t *testing.T) {
	place, err := HashPlacement(24, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := &gatedSource{memSource: newMemSource(24), gated: map[int]bool{}, release: make(chan struct{})}
	for _, gid := range place.Globals(1) {
		src.gated[gid] = true
	}
	f, srv := newTestFleet(t, src, func(c *Config) { c.Placement = place })
	// Cleanups run last-in first-out: a failing run releases the
	// stalled restart before the fleet shuts down.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(src.release) }) }
	t.Cleanup(release)
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	src.armed.Store(true)
	restarted := make(chan error, 1)
	go func() { restarted <- f.Restart(context.Background(), 1) }()
	waitFor(t, 5*time.Second, "the restart to stall in seeding", func() bool { return src.held.Load() > 0 })

	client := &http.Client{Timeout: 2 * time.Second}
	check := func(path string, want int) {
		t.Helper()
		start := time.Now()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s during the restart: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s during the restart: status %d, want %d", path, resp.StatusCode, want)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("%s during the restart took %v — it must not wait for seeding", path, d)
		}
	}
	for _, gid := range place.Globals(1) {
		check("/object/"+strconv.Itoa(gid), http.StatusServiceUnavailable)
	}
	for _, route := range []string{"readyz", "healthz", "metrics", "status"} {
		check("/shard/1/"+route, http.StatusServiceUnavailable)
	}
	check("/object/"+strconv.Itoa(place.Globals(0)[0]), http.StatusOK)
	check("/status", http.StatusOK)

	release()
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "shard 1 to rejoin", func() bool { return f.Healthy()[1] })
	check("/object/"+strconv.Itoa(place.Globals(1)[0]), http.StatusOK)
}

// get issues one GET through the router with optional request
// headers and returns the response with its body read.
func get(t *testing.T, url string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// checkRetryAfter fails unless h carries a jittered Retry-After.
func checkRetryAfter(t *testing.T, h http.Header, what string) {
	t.Helper()
	ra, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
		t.Errorf("%s: Retry-After %q", what, h.Get("Retry-After"))
	}
}

// TestRouterContract pins what a routed read carries. The router calls
// the owning shard's handler in-process, so the shard's own status,
// headers and body reach the client, and so do the request headers
// the shard reads.
func TestRouterContract(t *testing.T) {
	src := newMemSource(24)
	src.Bump(5)
	src.Bump(5)
	f, srv := newTestFleet(t, src, nil)
	place := f.Placement()

	// X-Version names the version the body holds.
	for gid := 0; gid < 24; gid++ {
		resp, body := get(t, srv.URL+"/object/"+strconv.Itoa(gid), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("object %d: status %d", gid, resp.StatusCode)
		}
		want := fmt.Sprintf("object-%d-v%s", gid, resp.Header.Get("X-Version"))
		if body != want {
			t.Errorf("object %d: body %q with X-Version %q", gid, body, resp.Header.Get("X-Version"))
		}
	}

	// X-If-Version reaches the shard: the held version gets its 304
	// with no body, an older one the full object.
	resp, body := get(t, srv.URL+"/object/5", map[string]string{"X-If-Version": "2"})
	if resp.StatusCode != http.StatusNotModified || body != "" {
		t.Errorf("X-If-Version at the current version: status %d body %q, want 304 and no body", resp.StatusCode, body)
	}
	resp, body = get(t, srv.URL+"/object/5", map[string]string{"X-If-Version": "1"})
	if resp.StatusCode != http.StatusOK || body != "object-5-v2" {
		t.Errorf("X-If-Version behind the current version: status %d body %q, want 200 object-5-v2", resp.StatusCode, body)
	}

	// Each shard's own routes are served under /shard/{i}/, and the
	// metrics are shard i's: freshen_objects counts what it owns.
	for i := 0; i < 3; i++ {
		base := srv.URL + "/shard/" + strconv.Itoa(i)
		resp, body := get(t, base+"/metrics", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d metrics: status %d", i, resp.StatusCode)
		}
		want := fmt.Sprintf("\nfreshen_objects %d\n", len(place.Globals(i)))
		if !strings.Contains(body, want) {
			t.Errorf("shard %d metrics lack %q", i, strings.TrimSpace(want))
		}
		for _, route := range []string{"/status", "/healthz", "/readyz"} {
			if resp, _ := get(t, base+route, nil); resp.StatusCode != http.StatusOK {
				t.Errorf("shard %d %s: status %d", i, route, resp.StatusCode)
			}
		}
	}
	for _, path := range []string{"/shard/3/metrics", "/shard/x/metrics", "/shard/0/replan", "/shard/0/object/1"} {
		if resp, _ := get(t, srv.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/shard/0/metrics", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /shard/0/metrics: status %d, want 405", resp.StatusCode)
	}

	// A killed shard's routes answer 503; a restart brings them back.
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, srv.URL+"/shard/1/metrics", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("killed shard metrics: status %d, want 503", resp.StatusCode)
	}
	checkRetryAfter(t, resp.Header, "killed shard metrics")
	if err := f.Restart(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, srv.URL+"/shard/1/metrics", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("restarted shard metrics: status %d, want 200", resp.StatusCode)
	}
}

// TestRouterPassesDegradedHeaders takes the source down until the
// shards' breakers open and checks that a routed read carries the
// shard's degradation headers.
func TestRouterPassesDegradedHeaders(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, func(cfg *Config) {
		cfg.Mirror.Fault = httpmirror.FaultPolicy{
			BreakerThreshold: 2,
			BreakerCooldown:  1000,
			QuarantineAfter:  -1,
		}
	})
	src.SetDown(true)
	gid := 0
	owner := f.Placement().ShardOf(gid)
	waitFor(t, 10*time.Second, "the owning shard to go source-degraded", func() bool {
		m := f.Shard(owner).Mirror()
		return m != nil && m.Mode()&resilience.ModeSourceDegraded != 0
	})
	resp, body := get(t, srv.URL+"/object/"+strconv.Itoa(gid), nil)
	if resp.StatusCode != http.StatusOK || body != "object-0-v0" {
		t.Fatalf("degraded read: status %d body %q, want 200 object-0-v0", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Mirror-Mode"); got != "source-degraded" {
		t.Errorf("X-Mirror-Mode = %q, want source-degraded", got)
	}
	if stale, err := strconv.ParseFloat(resp.Header.Get("X-Staleness-Periods"), 64); err != nil || stale < 0 {
		t.Errorf("X-Staleness-Periods = %q, want a non-negative number", resp.Header.Get("X-Staleness-Periods"))
	}
}

// TestRouterPassesShardShed overloads one shard's admission limiter
// and checks that its shed reaches the client as a 503 with the
// shard's jittered Retry-After.
func TestRouterPassesShardShed(t *testing.T) {
	src := newMemSource(24)
	_, srv := newTestFleet(t, src, func(cfg *Config) {
		cfg.Mirror.Overload = resilience.LimiterConfig{MaxInflight: 1}
		cfg.Mirror.ServeFaultLatency = 100 * time.Millisecond
	})
	var shed, ok int
	for round := 0; round < 5 && (shed == 0 || ok == 0); round++ {
		resps := make([]*http.Response, 6)
		var wg sync.WaitGroup
		for k := range resps {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				resp, err := http.Get(srv.URL + "/object/0")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				resps[k] = resp
			}(k)
		}
		wg.Wait()
		for _, resp := range resps {
			switch {
			case resp == nil:
			case resp.StatusCode == http.StatusOK:
				ok++
			case resp.StatusCode == http.StatusServiceUnavailable:
				shed++
				checkRetryAfter(t, resp.Header, "shed read")
			default:
				t.Errorf("concurrent read: status %d", resp.StatusCode)
			}
		}
	}
	if shed == 0 || ok == 0 {
		t.Errorf("%d reads served, %d shed; want both", ok, shed)
	}
}

// TestShardConditionalFetches runs a fleet over an HTTP source that
// answers conditional fetches: every shard's view must keep that
// protocol, so unchanged objects come back 304 instead of costing a
// HEAD plus a GET.
func TestShardConditionalFetches(t *testing.T) {
	lambdas := make([]float64, 24)
	for i := range lambdas {
		lambdas[i] = 1
	}
	sim, err := httpmirror.NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	up := httptest.NewServer(sim.Handler())
	defer up.Close()
	client := httpmirror.NewSourceClient(up.URL, nil)
	f, _ := newTestFleet(t, client, func(cfg *Config) {
		cfg.ShardUpstream = func(int) httpmirror.Source { return httpmirror.NewSourceClient(up.URL, nil) }
	})

	view := newShardSource(client, f.Placement(), 0)
	if _, ok := view.(httpmirror.ConditionalSource); !ok {
		t.Error("shard view over a conditional source lost ConditionalSource")
	}
	if _, ok := view.(httpmirror.UpstreamHealth); ok {
		t.Error("shard view gained UpstreamHealth")
	}
	if _, ok := newShardSource(newMemSource(24), f.Placement(), 0).(httpmirror.ConditionalSource); ok {
		t.Error("shard view over a plain source claims ConditionalSource")
	}

	// The simulated source never advances, so every poll finds the
	// held version.
	waitFor(t, 10*time.Second, "a shard's first 304", func() bool {
		for i := 0; i < 3; i++ {
			if m := f.Shard(i).Mirror(); m != nil && m.Status().NotModified > 0 {
				return true
			}
		}
		return false
	})
}
