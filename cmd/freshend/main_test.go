package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig(upstream, strategy string, bandwidth, replanEvery float64, period time.Duration) config {
	return config{
		addr:        ":0",
		upstream:    upstream,
		bandwidth:   bandwidth,
		period:      period,
		strategy:    strategy,
		partitions:  10,
		iterations:  3,
		replanEvery: replanEvery,
		seed:        1,
		upTimeout:   time.Second,
		upRetries:   1,
		shards:      1,
		placement:   "hash",
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name                   string
		upstream, strategy     string
		bandwidth, replanEvery float64
		period                 time.Duration
	}{
		{"missing upstream", "", "exact", 10, 5, time.Second},
		{"zero bandwidth", "http://localhost:1", "exact", 0, 5, time.Second},
		{"zero period", "http://localhost:1", "exact", 10, 5, 0},
		{"zero replan", "http://localhost:1", "exact", 10, 0, time.Second},
		{"bad strategy", "http://localhost:1", "warp", 10, 5, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.upstream, tc.strategy, tc.bandwidth, tc.replanEvery, tc.period)
			if err := run(context.Background(), cfg, nil); err == nil {
				t.Fatal("invalid configuration accepted")
			}
		})
	}
	t.Run("zero snapshot-every with state dir", func(t *testing.T) {
		cfg := testConfig("http://localhost:1", "exact", 10, 5, time.Second)
		cfg.stateDir = t.TempDir()
		cfg.snapshotEvery = 0
		if err := run(context.Background(), cfg, nil); err == nil {
			t.Fatal("invalid configuration accepted")
		}
	})
}

func TestRunUnreachableUpstream(t *testing.T) {
	// A valid configuration against a dead upstream must fail at the
	// catalog fetch, not hang.
	cfg := testConfig("http://127.0.0.1:1", "exact", 10, 5, time.Second)
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Fatal("unreachable upstream accepted")
	}
}

// TestRunRejectsBadFaultFlags checks that malformed -persist-fault-*
// flags stop the daemon, in both modes, before it contacts the
// upstream, writes to the state directory or starts listening.
func TestRunRejectsBadFaultFlags(t *testing.T) {
	var hits atomic.Int64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.NotFound(w, r)
	}))
	defer up.Close()

	cases := []struct {
		name     string
		shards   int
		stateDir bool
		kind     string
		shard    int
		want     string
	}{
		{"single unknown kind", 1, true, "bitrot", 0, `unknown persist-fault-kind "bitrot"`},
		{"single unknown kind, no state dir", 1, false, "bitrot", 0, `unknown persist-fault-kind "bitrot"`},
		{"fleet unknown kind", 4, true, "bitrot", 0, `unknown persist-fault-kind "bitrot"`},
		{"fleet shard below range", 4, true, "eio", -1, "persist-fault-shard -1 outside fleet of 4"},
		{"fleet shard above range", 4, true, "enospc", 4, "persist-fault-shard 4 outside fleet of 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(up.URL, "exact", 10, 5, time.Second)
			cfg.shards = tc.shards
			dir := t.TempDir()
			if tc.stateDir {
				cfg.stateDir = dir
			}
			cfg.snapshotEvery = 5
			cfg.persistFaultAfter = 1
			cfg.persistFaultKind = tc.kind
			cfg.persistFaultShard = tc.shard
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ready := make(chan net.Addr, 1)
			err := run(ctx, cfg, ready)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run error = %v, want one containing %q", err, tc.want)
			}
			select {
			case addr := <-ready:
				t.Errorf("listener started on %v", addr)
			default:
			}
			if n := hits.Load(); n != 0 {
				t.Errorf("upstream contacted %d times", n)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Errorf("state dir touched: %d entries, err %v", len(entries), err)
			}
		})
	}
}
