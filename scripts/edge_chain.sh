#!/usr/bin/env bash
# edge_chain.sh — live two-level hierarchy drill.
#
# Stands up a real chain with race-built binaries:
#
#   mocksource origin -> freshend regional -> freshend edge (-upstream-url)
#
# proves the healthy chain end to end (the edge mirrors through the
# regional; the regional answers the edge's conditional polls with 304s;
# topology-status walks both levels), then hard-kills the regional tier
# mid-run and asserts the edge's degraded-mode contract:
#
#   - every object keeps serving 200 from the edge's local copies —
#     zero non-200 responses during the outage
#   - responses carry X-Mirror-Mode: source-degraded and a parseable,
#     positive X-Staleness-Periods that grows while the outage lasts
#   - after the regional restarts, the edge re-converges to full mode
#     and drops the degradation headers
#
# Knobs come from the environment, CI-sized defaults:
#
#   N=32 OUTAGE=6 ./scripts/edge_chain.sh
set -euo pipefail

N=${N:-32}
OUTAGE=${OUTAGE:-6}
PERIOD=${PERIOD:-1s}
MOCK_ADDR=${MOCK_ADDR:-127.0.0.1:18090}
REGIONAL_ADDR=${REGIONAL_ADDR:-127.0.0.1:18091}
EDGE_ADDR=${EDGE_ADDR:-127.0.0.1:18092}

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

echo "edge_chain: building race-instrumented binaries" >&2
go build -race -o "$bin" ./cmd/mocksource ./cmd/freshend ./cmd/freshenctl

wait_ready() {
    local url=$1 tries=150
    until curl -fsS -o /dev/null "$url" 2>/dev/null; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "edge_chain: $url never became ready" >&2
            return 1
        fi
        sleep 0.2
    done
}

"$bin/mocksource" -addr "$MOCK_ADDR" -n "$N" -mean 2 -period 10s &
wait_ready "http://$MOCK_ADDR/catalog"

start_regional() {
    "$bin/freshend" -addr "$REGIONAL_ADDR" -upstream "http://$MOCK_ADDR" \
        -bandwidth "$((N / 4))" -period "$PERIOD" -replan-every 2 &
    regional_pid=$!
}
start_regional
wait_ready "http://$REGIONAL_ADDR/readyz"

# The edge chains below the regional, short breaker so the kill lands
# in drill time, few retries so refresh failures surface fast.
"$bin/freshend" -addr "$EDGE_ADDR" -upstream-url "http://$REGIONAL_ADDR" \
    -bandwidth "$((N / 8))" -period "$PERIOD" -replan-every 2 \
    -upstream-retries 1 -upstream-timeout 2s -breaker-after 2 -breaker-cooldown 1 &
wait_ready "http://$EDGE_ADDR/readyz"

# Healthy chain: the edge serves clean and reports its upstream.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$EDGE_ADDR/object/0")
if [ "$code" != "200" ]; then
    echo "edge_chain: FAIL: healthy edge served $code for object 0" >&2
    exit 1
fi
upstream_url=$(curl -fsS "http://$EDGE_ADDR/status" | jq -r '.upstream_url')
if [ "$upstream_url" != "http://$REGIONAL_ADDR" ]; then
    echo "edge_chain: FAIL: edge reports upstream $upstream_url" >&2
    exit 1
fi

# The regional must answer some of the edge's conditional refresh
# polls with 304 — the bytes the hierarchy exists to save.
deadline=$((SECONDS + 30))
not_modified=0
while [ "$SECONDS" -lt "$deadline" ]; do
    not_modified=$(curl -fsS "http://$REGIONAL_ADDR/status" | jq -r '.source_not_modified')
    [ "$not_modified" -gt 0 ] && break
    sleep 0.5
done
if [ "$not_modified" -le 0 ]; then
    echo "edge_chain: FAIL: regional never answered an edge poll with 304" >&2
    exit 1
fi
echo "edge_chain: healthy chain up, $not_modified conditional polls saved" >&2

# sed reads the whole walk: head -1 would exit after one line and, if
# freshenctl writes again, SIGPIPE tee and fail the pipeline.
levels=$("$bin/freshenctl" topology-status -url "http://$EDGE_ADDR" | tee /dev/stderr | sed -n 1p)
if [ "$levels" != "chain: 2 level(s), edge first" ]; then
    echo "edge_chain: FAIL: topology walk saw '$levels'" >&2
    exit 1
fi

# Kill the regional tier, hard.
echo "edge_chain: killing regional tier (pid $regional_pid)" >&2
kill -9 "$regional_pid"

# The edge must flip to source-degraded and keep serving everything.
deadline=$((SECONDS + 30))
mode=""
while [ "$SECONDS" -lt "$deadline" ]; do
    mode=$(curl -fsS "http://$EDGE_ADDR/status" | jq -r '.mode')
    case "$mode" in *source-degraded*) break ;; esac
    sleep 0.5
done
case "$mode" in
*source-degraded*) ;;
*)
    echo "edge_chain: FAIL: edge mode '$mode' after regional kill" >&2
    exit 1
    ;;
esac

headers=$(mktemp)
bad=0
stale_first=""
for id in $(seq 0 $((N - 1))); do
    code=$(curl -s -D "$headers" -o /dev/null -w '%{http_code}' "http://$EDGE_ADDR/object/$id")
    if [ "$code" != "200" ]; then
        echo "edge_chain: object $id served $code during the outage" >&2
        bad=$((bad + 1))
        continue
    fi
    hmode=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-mirror-mode" {print $2}')
    stale=$(tr -d '\r' <"$headers" | awk -F': ' 'tolower($1)=="x-staleness-periods" {print $2}')
    if [ "$hmode" != "source-degraded" ]; then
        echo "edge_chain: object $id mode header '$hmode'" >&2
        bad=$((bad + 1))
    fi
    # Parseable positive float, the degraded-serving contract.
    if ! awk -v s="$stale" 'BEGIN { exit !(s + 0 > 0) }'; then
        echo "edge_chain: object $id staleness header '$stale'" >&2
        bad=$((bad + 1))
    fi
    [ -z "$stale_first" ] && stale_first=$stale
done
rm -f "$headers"
if [ "$bad" -gt 0 ]; then
    echo "edge_chain: FAIL: $bad bad responses during the regional outage" >&2
    exit 1
fi

# Staleness must grow while the outage lasts.
sleep "$OUTAGE"
stale_later=$(curl -s -D - -o /dev/null "http://$EDGE_ADDR/object/0" |
    tr -d '\r' | awk -F': ' 'tolower($1)=="x-staleness-periods" {print $2}')
if ! awk -v a="$stale_first" -v b="$stale_later" 'BEGIN { exit !(b + 0 > a + 0) }'; then
    echo "edge_chain: FAIL: staleness did not grow ($stale_first -> $stale_later)" >&2
    exit 1
fi
echo "edge_chain: outage ridden out, staleness $stale_first -> $stale_later across all $N objects" >&2

# Regional returns: the edge must re-converge and drop the headers.
start_regional
wait_ready "http://$REGIONAL_ADDR/readyz"
deadline=$((SECONDS + 60))
mode=""
while [ "$SECONDS" -lt "$deadline" ]; do
    mode=$(curl -fsS "http://$EDGE_ADDR/status" | jq -r '.mode')
    [ "$mode" = "full" ] && break
    sleep 0.5
done
if [ "$mode" != "full" ]; then
    echo "edge_chain: FAIL: edge stuck in '$mode' after regional restart; status:" >&2
    curl -fsS "http://$EDGE_ADDR/status" | jq . >&2 || true
    exit 1
fi
hmode=$(curl -s -D - -o /dev/null "http://$EDGE_ADDR/object/0" |
    tr -d '\r' | awk -F': ' 'tolower($1)=="x-mirror-mode" {print $2}')
if [ -n "$hmode" ]; then
    echo "edge_chain: FAIL: recovered edge still sends X-Mirror-Mode: $hmode" >&2
    exit 1
fi

"$bin/freshenctl" topology-status -url "http://$EDGE_ADDR" >&2

echo "edge_chain: PASS ($N objects served 200 through a hard regional kill, staleness grew and cleared, chain re-converged)"
