#!/usr/bin/env bash
# Fleet loadtest: boots scserved backends (plus scroute for sharded
# shapes), drives a seeded open-loop load with scload, and asserts
# shed-not-collapse — at saturation the fleet answers 429 (rate rising
# with offered load), admitted p99 stays bounded, and nothing returns
# a 5xx. For the sharded shape it additionally asserts the point of the
# router: every backend's engine-cache hit rate beats the unsharded
# single-process baseline, because consistent hashing keeps each shard
# of the spec universe on one backend's LRU.
#
# Usage:
#   scripts/loadtest.sh accept   # 1-backend baseline vs 3-backend fleet,
#                                # writes ACCEPTANCE_loadtest.md
#   scripts/loadtest.sh smoke    # 2-backend fleet, short run for CI,
#                                # writes loadtest-summary.md
#
# Backends run deliberately tiny (-max-concurrent 1 -queue 2 -cache 16)
# so saturation and cache pressure are reachable at CI scale: the spec
# universe (96 specs) is 6x one engine cache but under 2x a 3-way
# shard of it.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-accept}"
BIN=bin
DUR="${LOADTEST_DURATION:-15s}"
SPECS=96
CACHE=16
BASE=19100
ROUTER_PORT=19110
TMP="$(mktemp -d)"

go build -o $BIN/scserved ./cmd/scserved
go build -o $BIN/scroute ./cmd/scroute
go build -o $BIN/scload ./cmd/scload

PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_ready() { # base-url
    for _ in $(seq 1 100); do
        if curl -fsS "$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "loadtest: $1 never became ready" >&2
    return 1
}

start_backend() { # port
    $BIN/scserved -addr "127.0.0.1:$1" -max-concurrent 1 -queue 2 \
        -cache $CACHE -timeout 20s -log-format off &
    PIDS+=($!)
    wait_ready "http://127.0.0.1:$1"
}

start_router() { # backend-urls
    $BIN/scroute -addr "127.0.0.1:$ROUTER_PORT" -backends "$1" \
        -poll-interval 250ms -log-format off &
    PIDS+=($!)
    wait_ready "http://127.0.0.1:$ROUTER_PORT"
}

stop_all() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    PIDS=()
}

hit_rate() { # base-url -> "0.427 (hits/total)"
    curl -fsS "$1/metrics" | awk '
        /^scserved_engine_cache_hits_total /   {h=$2}
        /^scserved_engine_cache_misses_total / {m=$2}
        END { if (h+m == 0) { print "0.000 (0/0)" }
              else { printf "%.3f (%d/%d)\n", h/(h+m), h, h+m } }'
}

# run_load <label> <target> <rps> <seed> [extra scload flags...]
# Summary lands in $TMP/<label>.txt; assertions make scload exit 1.
run_load() {
    local label=$1 target=$2 rps=$3 seed=$4
    shift 4
    echo "== $label: $rps rps for $DUR against $target"
    $BIN/scload -target "$target" -rps "$rps" -duration "$DUR" -seed "$seed" \
        -specs $SPECS -profiles year-in-life "$@" | tee "$TMP/$label.txt"
}

shed_pct() { sed -n 's/.*shed: \([0-9.]*\)%.*/\1/p' "$TMP/$1.txt"; }
summary_row() { # label shape phase rps
    awk -v shape="$2" -v phase="$3" -v rps="$4" '
        /^sent:/ {
            sent=$2; okc=$4; shed=$6; s5=$10
            sub(/%$/, "", $(NF))
            pct=$(NF)
        }
        /^admitted p99/ { p99=$(NF-1) }
        END { printf "| %s | %s | %s | %s | %s | %s | %s%% | %s |\n",
              shape, phase, rps, sent, okc, shed, pct, p99 }
    ' "$TMP/$1.txt"
}

# Overload workload: batch-only year-in-life bills, the heaviest shape
# the API serves (64 distinct contracts per batch, so batch dedupe
# cannot fold one into a single bill), so demand exceeds fleet capacity
# on any hardware.
OVERLOAD_ARGS=(-batch-fraction 1 -batch-items 64
    -assert-zero-5xx -assert-min-shed 0.05 -assert-p99 10s)
NOMINAL_ARGS=(-batch-fraction 0 -assert-zero-5xx -assert-p99 10s)

if [ "$MODE" = smoke ]; then
    OUT=loadtest-summary.md
    DUR="${LOADTEST_DURATION:-10s}"
    start_backend $((BASE + 1))
    start_backend $((BASE + 2))
    start_router "http://127.0.0.1:$((BASE + 1)),http://127.0.0.1:$((BASE + 2))"
    run_load smoke "http://127.0.0.1:$ROUTER_PORT" 600 2 "${OVERLOAD_ARGS[@]}"
    {
        echo "# scload smoke (2 backends behind scroute, $DUR)"
        echo
        echo '```'
        cat "$TMP/smoke.txt"
        echo '```'
    } >"$OUT"
    echo "loadtest smoke: zero 5xx, shed $(shed_pct smoke)% — wrote $OUT"
    exit 0
fi

OUT="${LOADTEST_OUT:-ACCEPTANCE_loadtest.md}"

# ---- Shape A: one unsharded backend, hit directly. -------------------
start_backend $((BASE + 1))
BASE_URL="http://127.0.0.1:$((BASE + 1))"
run_load base-nominal "$BASE_URL" 30 1 "${NOMINAL_ARGS[@]}"
# Scrape cache hit rate after the single-bill phase, where one request
# is one engine-cache lookup. (The batch overload phase would swamp the
# signal: each admitted batch looks up 64 consecutive specs of the
# cycle, four times one engine cache, on whichever backend owns the
# first, so it measures the batch shape rather than sharding.)
BASE_HIT=$(hit_rate "$BASE_URL")
run_load base-overload "$BASE_URL" 1200 2 "${OVERLOAD_ARGS[@]}"
stop_all

# ---- Shape B: three backends behind scroute. -------------------------
start_backend $((BASE + 1))
start_backend $((BASE + 2))
start_backend $((BASE + 3))
start_router "http://127.0.0.1:$((BASE + 1)),http://127.0.0.1:$((BASE + 2)),http://127.0.0.1:$((BASE + 3))"
FRONT="http://127.0.0.1:$ROUTER_PORT"
run_load fleet-nominal "$FRONT" 90 1 "${NOMINAL_ARGS[@]}"
HIT1=$(hit_rate "http://127.0.0.1:$((BASE + 1))")
HIT2=$(hit_rate "http://127.0.0.1:$((BASE + 2))")
HIT3=$(hit_rate "http://127.0.0.1:$((BASE + 3))")
run_load fleet-overload "$FRONT" 1200 2 "${OVERLOAD_ARGS[@]}"
ROUTER_5XX=$(curl -fsS "$FRONT/metrics" | awk '$1 ~ /^scroute_requests_total\{.*code="5/ {n+=$2} END{print n+0}')
stop_all

# ---- Assertions beyond scload's own. ---------------------------------
fail=0
if [ "$ROUTER_5XX" != 0 ]; then
    echo "loadtest: FAIL: router relayed $ROUTER_5XX 5xx responses" >&2
    fail=1
fi
# 429 rate must rise with offered load in both shapes.
for shape in base fleet; do
    if ! awk -v lo="$(shed_pct $shape-nominal)" -v hi="$(shed_pct $shape-overload)" \
        'BEGIN{exit !(hi > lo)}'; then
        echo "loadtest: FAIL: $shape shed did not rise under overload" >&2
        fail=1
    fi
done
# Every sharded backend's cache hit rate must beat the unsharded baseline.
for hr in "$HIT1" "$HIT2" "$HIT3"; do
    if ! awk -v a="${hr%% *}" -v b="${BASE_HIT%% *}" 'BEGIN{exit !(a > b)}'; then
        echo "loadtest: FAIL: sharded hit rate $hr not above baseline $BASE_HIT" >&2
        fail=1
    fi
done

{
    echo "# Sharded-fleet loadtest acceptance"
    echo
    echo "Seeded open-loop load (scload, year-in-life bills, $SPECS distinct"
    echo "specs, engine cache $CACHE per backend) against one unsharded scserved"
    echo "versus three scserved behind scroute. Overload phase is batch-only"
    echo "(one load x 64 distinct contracts per request) at 1200 rps, far"
    echo "past fleet capacity."
    echo
    echo "| shape | phase | rps | sent | 2xx | 429 | shed | admitted p99 ms |"
    echo "|---|---|---|---|---|---|---|---|"
    summary_row base-nominal "1 backend" nominal 30
    summary_row base-overload "1 backend" overload 1200
    summary_row fleet-nominal "3 backends + scroute" nominal 90
    summary_row fleet-overload "3 backends + scroute" overload 1200
    echo
    echo "Engine-cache hit rate after the single-bill nominal phase, where"
    echo "one request is one cache lookup (hits/lookups):"
    echo
    echo "| process | hit rate |"
    echo "|---|---|"
    echo "| unsharded baseline | $BASE_HIT |"
    echo "| shard backend 1 | $HIT1 |"
    echo "| shard backend 2 | $HIT2 |"
    echo "| shard backend 3 | $HIT3 |"
    echo
    echo "Router 5xx relayed: $ROUTER_5XX."
    echo
    if [ "$fail" = 0 ]; then
        echo "Verdict: PASS — zero 5xx end to end, 429 rate rises with offered"
        echo "load in both shapes, admitted p99 bounded, and every sharded"
        echo "backend's cache hit rate beats the unsharded baseline."
    else
        echo "Verdict: FAIL — see run log."
    fi
} >"$OUT"

echo
echo "loadtest: wrote $OUT"
exit $fail
