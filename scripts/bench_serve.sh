#!/usr/bin/env bash
# bench_serve.sh — closed-loop serving-path benchmark.
#
# Two measurements travel together in BENCH_serve.json:
#
#  1. Micro: `go test -bench` measures allocs/op for the raw
#     Mirror.Access path and the full /object HTTP route (both must be
#     zero — that is the point of the lock-free read path).
#  2. Macro: the full live loop (mocksource origin with injected faults
#     -> freshend mirror with persistence and frequent replans ->
#     loadgen's paced worker pool) ramps Zipf GET traffic through the
#     STAGES targets while refreshes, breaker trips, and snapshots run
#     concurrently, recording per-stage latency quantiles, stalls, and
#     the max sustained RPS. With PAST_KNEE=1 (the default) the ramp
#     keeps going after the first unsustained stage so the report also
#     captures the degradation envelope: shed rate rising while the
#     admitted p99 stays bounded.
#
# Knobs come from the environment:
#
#   N=200 STAGES=500,1000,2000 STAGE_DURATION=5s ./scripts/bench_serve.sh
set -euo pipefail

N=${N:-200}
THETA=${THETA:-1.0}
WORKERS=${WORKERS:-16}
MAX_INFLIGHT=${MAX_INFLIGHT:-8}
STAGES=${STAGES:-500,1000,2000,4000,8000,16000}
STAGE_DURATION=${STAGE_DURATION:-5s}
WARMUP=${WARMUP:-1s}
PAST_KNEE=${PAST_KNEE:-1}
REQUIRE_SHED=${REQUIRE_SHED:-0}
P99_FACTOR=${P99_FACTOR:-5}
BENCHTIME=${BENCHTIME:-1s}
OUT=${OUT:-BENCH_serve.json}
MOCK_ADDR=${MOCK_ADDR:-127.0.0.1:18090}
MIRROR_ADDR=${MIRROR_ADDR:-127.0.0.1:18091}

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
state=$(mktemp -d)
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$bin" "$state"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/mocksource ./cmd/freshend ./cmd/loadgen

echo "bench_serve: measuring serving-path allocs/op" >&2
bench=$(go test -run 'xxx' -bench 'BenchmarkAccess$|BenchmarkObjectHandler$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/httpmirror/)
echo "$bench" >&2
# The -N cpu suffix on benchmark names is omitted when GOMAXPROCS=1,
# hence the two-character match. Missing lines degrade to -1 ("not
# measured") rather than killing the run.
access_allocs=$(echo "$bench" | awk '$1 ~ /^BenchmarkAccess(-[0-9]+)?$/ {print $(NF-1)}')
handler_allocs=$(echo "$bench" | awk '$1 ~ /^BenchmarkObjectHandler(-[0-9]+)?$/ {print $(NF-1)}')
access_allocs=${access_allocs:--1}
handler_allocs=${handler_allocs:--1}

wait_ready() {
    local url=$1 tries=50
    until curl -fsS -o /dev/null "$url" 2>/dev/null; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "bench_serve: $url never became ready" >&2
            return 1
        fi
        sleep 0.2
    done
}

# The origin injects a light fault rate (sparse 500s keep the retry
# path warm without breaking the strict seed fetch) plus a hard outage
# window that opens mid-ramp, so the breaker trips and refreshes are
# skipped while the read path is measured; GETs keep serving from the
# local copies regardless.
"$bin/mocksource" -addr "$MOCK_ADDR" -n "$N" -mean 2 -period 5s \
    -fault-rate 0.05 -outage-after 10s -outage-for 5s &
wait_ready "http://$MOCK_ADDR/catalog"

# Short periods, frequent replans, and a tight snapshot cadence keep
# the write side busy: every stage of the ramp overlaps refresh
# commits (per-object view stores), plan recomputes, and fsyncing
# snapshots.
"$bin/freshend" -addr "$MIRROR_ADDR" -upstream "http://$MOCK_ADDR" \
    -bandwidth "$((N / 4))" -period 2s -replan-every 2 -upstream-retries 5 \
    -breaker-after 3 -breaker-cooldown 1 -quarantine-after 5 \
    -state-dir "$state" -snapshot-every 2 \
    -max-inflight "$MAX_INFLIGHT" &
wait_ready "http://$MIRROR_ADDR/readyz"

past_knee_flag=""
if [ "$PAST_KNEE" = "1" ]; then
    past_knee_flag="-past-knee"
fi
# shellcheck disable=SC2086
"$bin/loadgen" -mirror "http://$MIRROR_ADDR" -n "$N" -theta "$THETA" \
    -serve-out "$OUT" -workers "$WORKERS" -stages "$STAGES" \
    -stage-duration "$STAGE_DURATION" -warmup "$WARMUP" \
    -status-url "http://$MIRROR_ADDR/status" $past_knee_flag \
    -access-allocs "$access_allocs" -handler-allocs "$handler_allocs"

# Sanity-assert the report so CI smoke fails loudly on a dead serving
# path rather than uploading a benchmark full of zeros.
rps=$(sed -n 's/.*"max_sustained_rps": \([0-9.eE+-]*\),*.*/\1/p' "$OUT")
awk -v r="${rps:-0}" 'BEGIN {
    if (r + 0 <= 0) { print "bench_serve: max_sustained_rps is zero" > "/dev/stderr"; exit 1 }
}'
for key in '"stages"' '"p99_ms"' '"shed_rate"' '"access_allocs_per_op"'; do
    if ! grep -q "$key" "$OUT"; then
        echo "bench_serve: $OUT is missing $key" >&2
        exit 1
    fi
done

# Overload discipline: excess load must come back as 503s (shed), never
# as other errors, and the latency of admitted requests past the knee
# must stay within P99_FACTOR of the in-envelope admitted p99.
errors=$(jq '[.stages[].errors] | add' "$OUT")
if [ "$errors" != "0" ]; then
    echo "bench_serve: $errors non-503 request errors during the ramp" >&2
    exit 1
fi
shed=$(jq '[.stages[].shed] | add' "$OUT")
if [ "$REQUIRE_SHED" = "1" ] && [ "$shed" -le 0 ]; then
    echo "bench_serve: no requests shed; the ramp never crossed the admission cap" >&2
    exit 1
fi
jq -e --argjson factor "$P99_FACTOR" '
    ([.stages[] | select(.sustained) | .admitted_p99_ms] | max // 0) as $envelope |
    ([.stages[] | select(.sustained | not) | .admitted_p99_ms] | max // 0) as $past |
    if $envelope == 0 or $past == 0 or $past <= $envelope * $factor then
        "bench_serve: admitted p99 \($past)ms past the knee vs \($envelope)ms in envelope (factor \($factor))"
    else
        error("admitted p99 \($past)ms past the knee exceeds \($factor)x envelope p99 \($envelope)ms")
    end' "$OUT" >&2

echo "bench_serve: wrote $OUT (max sustained $rps rps, $shed shed, access $access_allocs allocs/op, handler $handler_allocs allocs/op)"
