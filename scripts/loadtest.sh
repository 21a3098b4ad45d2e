#!/usr/bin/env bash
# loadtest.sh — drive maxrankd with cmd/loadtest and measure tail latency
# and goodput under bursty clustered traffic. Two experiments:
#
#  1. Overload / admission control (PR 7): a saturating workload
#     offered at 1x and then 2x, with admission control on
#     (-max-inflight/-queue-depth: bounded accept queue, early 429,
#     deadline-aware 503, Retry-After) and — for contrast — at 2x with it
#     off. Gates (QUICK and full):
#       * goodput at 2x offered load >= OVERLOAD_GOODPUT_MIN (default
#         70%) of goodput at 1x — shedding keeps the server doing useful
#         work at capacity instead of collapsing;
#       * p99 of served requests at 2x stays under the request timeout —
#         bounded tail, because excess load is refused at the door
#         instead of queueing unboundedly;
#       * the 2x run sheds at least one request — otherwise it was not an
#         overload and the gates above tested nothing.
#     Full mode additionally requires the admission-off 2x run to show
#     the failure being prevented: worse p99 than the admission-on run.
#
#  2. Priority scheduling (PR 9): a 50/50 interactive/bulk mix offered at
#     1x and 2x with admission on. The priority scheduler sheds bulk
#     first, so the gates (QUICK and full):
#       * interactive goodput at 2x >= PRIORITY_GOODPUT_MIN (default
#         90%) of interactive goodput at 1x — overload lands on bulk,
#         not on the latency-sensitive tier;
#       * interactive p99 at 2x stays under the request timeout;
#       * bulk requests still complete at 2x — aging promotes queued
#         bulk work instead of starving it behind interactive traffic;
#       * the bulk tier sheds at least one request at 2x — the scheduler
#         was under pressure, and bulk took it.
#
# The scenario: FCA at d = 2 over a page-latency ("disk") dataset, bursts
# of queries clustered around a hot focal, injected as fast as (1x) and
# twice as fast as (2x) the server can scan for each one. QUICK mode
# sets its capacity with the simulated page waits and few execution
# slots (4 slots at 100us a page serve ~320 req/s on a 2-core x86 box),
# so the runner's core count does not decide whether "2x" overloads.
#
# Usage:
#   scripts/loadtest.sh [out-dir]
#
# Environment:
#   QUICK=1        CI smoke mode: small dataset, short runs. Asserts
#                  the overload and priority gates above. Full mode adds
#                  the admission-off collapse contrast.
#   PORT           listen port for the scratch server (default 18491)
#   N, DIM, PAGE_LATENCY, RATE, BURST, DURATION, MAX_INFLIGHT,
#   QUEUE_DEPTH, REQUEST_TIMEOUT, OVERLOAD_GOODPUT_MIN,
#   PRIORITY_GOODPUT_MIN
#                  workload knobs; defaults below per mode
#
# Requires only the Go toolchain and awk.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=${QUICK:-0}
PORT=${PORT:-18491}
OUT_DIR=${1:-loadtest-out}

DIM=${DIM:-2}
# Overload knobs. The 1x rate sits at the server's capacity;
# the 2x run doubles it. The request timeout is deliberately short so the
# deadline shedder has something to protect, and so "p99 bounded" has a
# hard number to be bounded BY.
if [ "$QUICK" = "1" ]; then
    N=${N:-1500}
    PAGE_LATENCY=${PAGE_LATENCY:-100us}
    RATE=${RATE:-300}
    BURST=${BURST:-16}
    DURATION=${DURATION:-3s}
    MAX_INFLIGHT=${MAX_INFLIGHT:-4}
else
    N=${N:-4000}
    PAGE_LATENCY=${PAGE_LATENCY:-40us}
    RATE=${RATE:-850}
    BURST=${BURST:-16}
    DURATION=${DURATION:-10s}
    MAX_INFLIGHT=${MAX_INFLIGHT:-16}
fi
QUEUE_DEPTH=${QUEUE_DEPTH:-128}
REQUEST_TIMEOUT=${REQUEST_TIMEOUT:-2s}
OVERLOAD_GOODPUT_MIN=${OVERLOAD_GOODPUT_MIN:-0.70}
PRIORITY_GOODPUT_MIN=${PRIORITY_GOODPUT_MIN:-0.90}

BIN=$(mktemp -d)
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

echo "building maxrankd and loadtest..." >&2
go build -o "$BIN/maxrankd" ./cmd/maxrankd
go build -o "$BIN/loadtest" ./cmd/loadtest
mkdir -p "$OUT_DIR"

# one_run <rate> <admission: "off" | "max-inflight queue-depth"> <out.json> <label> [priorities]
one_run() {
    local rate=$1 admission=$2 out=$3 label=$4 priorities=${5:-}
    local admit_flags=""
    if [ "$admission" != "off" ]; then
        admit_flags="-max-inflight ${admission% *} -queue-depth ${admission#* }"
    fi
    local prio_flags=""
    if [ -n "$priorities" ]; then
        prio_flags="-priorities $priorities"
    fi
    # shellcheck disable=SC2086
    "$BIN/maxrankd" -addr "127.0.0.1:$PORT" \
        -gen IND -n "$N" -dim "$DIM" -seed 1 \
        -cache 0 -page-latency "$PAGE_LATENCY" \
        -request-timeout "$REQUEST_TIMEOUT" \
        $admit_flags >"$OUT_DIR/$label.server.log" 2>&1 &
    SRV_PID=$!
    # shellcheck disable=SC2086
    "$BIN/loadtest" -url "http://127.0.0.1:$PORT" \
        -mode open -rate "$rate" -burst "$BURST" -duration "$DURATION" \
        -mix clustered -clusters 1 -spread 0.02 -algorithm fca -seed 7 \
        -label "$label" -out "$out" $prio_flags
    kill "$SRV_PID" 2>/dev/null || true
    wait "$SRV_PID" 2>/dev/null || true
    SRV_PID=""
}

field_of() {
    awk -F': ' '/"'"$2"'"/ { gsub(/[ ,]/, "", $2); print $2; exit }' "$1"
}

# tier_field_of <report.json> <tier> <field>: read one field from the
# named tier's entry in a run's "tiers" array. Tier entries each start
# with a "priority" member, so the scan keys fields on the most recent
# priority seen; the aggregate fields precede the tiers array and carry
# no priority, so they never match.
tier_field_of() {
    awk -F': ' -v tier="$2" -v field="\"$3\"" '
        /"priority"/ { cur = $2; gsub(/[", ]/, "", cur) }
        index($0, field) && cur == tier { gsub(/[ ,]/, "", $2); print $2; exit }
    ' "$1"
}

# --- Experiment 1: admission control under 2x overload ----------------------

RATE2=$(awk 'BEGIN { print 2 * '"$RATE"' }')
ADMIT="$MAX_INFLIGHT $QUEUE_DEPTH"

echo "run 1/5: admission on ($ADMIT), 1x offered load ($RATE req/s)..." >&2
one_run "$RATE" "$ADMIT" "$OUT_DIR/admit_1x.json" admit_1x
echo "run 2/5: admission on ($ADMIT), 2x offered load ($RATE2 req/s)..." >&2
one_run "$RATE2" "$ADMIT" "$OUT_DIR/admit_2x.json" admit_2x

GOOD_1X=$(field_of "$OUT_DIR/admit_1x.json" goodput_rps)
GOOD_2X=$(field_of "$OUT_DIR/admit_2x.json" goodput_rps)
P99_2X=$(field_of "$OUT_DIR/admit_2x.json" p99_ms)
SHED_2X=$(awk 'BEGIN { s4=0; s5=0 } /"shed_429"/ { gsub(/[ ,]/,"",$2); s4=$2 } /"shed_503"/ { gsub(/[ ,]/,"",$2); s5=$2 } END { print s4+s5 }' FS=': ' "$OUT_DIR/admit_2x.json")

for v in "$GOOD_1X" "$GOOD_2X" "$P99_2X"; do
    if [ -z "$v" ] || ! awk 'BEGIN { exit !('"$v"' > 0) }'; then
        echo "FAIL: overload run metric missing (goodput 1x=$GOOD_1X 2x=$GOOD_2X p99 2x=$P99_2X)" >&2
        exit 1
    fi
done

# Gate A: goodput at 2x offered >= OVERLOAD_GOODPUT_MIN of goodput at 1x.
if awk 'BEGIN { exit !('"$GOOD_2X"' < '"$OVERLOAD_GOODPUT_MIN"' * '"$GOOD_1X"') }'; then
    echo "FAIL: goodput collapsed under 2x overload: ${GOOD_2X} < ${OVERLOAD_GOODPUT_MIN} * ${GOOD_1X} req/s" >&2
    exit 1
fi
# Gate B: p99 of served requests stays under the request timeout — the
# structural bound shedding is supposed to enforce (uncapped queues let
# served latency grow toward the client timeout instead).
TIMEOUT_MS=$(awk 'BEGIN { t="'"$REQUEST_TIMEOUT"'"; mult = 1000; if (t ~ /ms$/) { mult = 1 } sub(/[a-z]+$/, "", t); print t * mult }')
if awk 'BEGIN { exit !('"$P99_2X"' > '"$TIMEOUT_MS"') }'; then
    echo "FAIL: p99 at 2x overload not bounded: ${P99_2X} ms > request timeout ${TIMEOUT_MS} ms" >&2
    exit 1
fi
# Gate F: the 2x run really overloaded the gate.
if ! awk 'BEGIN { exit !('"$SHED_2X"' > 0) }'; then
    echo "FAIL: nothing was shed at 2x offered load: the run never overloaded admission (raise RATE or PAGE_LATENCY, or lower MAX_INFLIGHT)" >&2
    exit 1
fi
echo "overload gates: goodput 2x/1x = ${GOOD_2X}/${GOOD_1X} req/s (>= ${OVERLOAD_GOODPUT_MIN}), p99 2x = ${P99_2X} ms <= ${TIMEOUT_MS} ms, shed = ${SHED_2X}: OK" >&2

# --- Experiment 2: priority scheduling under 2x mixed overload ---------------

PRIO_MIX="interactive=50,bulk=50"

echo "run 3/5: priority mix ($PRIO_MIX), 1x offered load ($RATE req/s)..." >&2
one_run "$RATE" "$ADMIT" "$OUT_DIR/priority_1x.json" priority_1x "$PRIO_MIX"
echo "run 4/5: priority mix ($PRIO_MIX), 2x offered load ($RATE2 req/s)..." >&2
one_run "$RATE2" "$ADMIT" "$OUT_DIR/priority_2x.json" priority_2x "$PRIO_MIX"

INT_GOOD_1X=$(tier_field_of "$OUT_DIR/priority_1x.json" interactive goodput_rps)
INT_GOOD_2X=$(tier_field_of "$OUT_DIR/priority_2x.json" interactive goodput_rps)
INT_P99_2X=$(tier_field_of "$OUT_DIR/priority_2x.json" interactive p99_ms)
BULK_OK_2X=$(tier_field_of "$OUT_DIR/priority_2x.json" bulk requests)
BULK_429_2X=$(tier_field_of "$OUT_DIR/priority_2x.json" bulk shed_429)
BULK_503_2X=$(tier_field_of "$OUT_DIR/priority_2x.json" bulk shed_503)
BULK_SHED_2X=$((${BULK_429_2X:-0} + ${BULK_503_2X:-0}))

for v in "$INT_GOOD_1X" "$INT_GOOD_2X" "$INT_P99_2X"; do
    if [ -z "$v" ] || ! awk 'BEGIN { exit !('"$v"' > 0) }'; then
        echo "FAIL: priority run metric missing (interactive goodput 1x=$INT_GOOD_1X 2x=$INT_GOOD_2X p99 2x=$INT_P99_2X)" >&2
        exit 1
    fi
done

# Gate C: interactive goodput holds at 2x — overload is absorbed by bulk
# shedding, not spread evenly across tiers.
if awk 'BEGIN { exit !('"$INT_GOOD_2X"' < '"$PRIORITY_GOODPUT_MIN"' * '"$INT_GOOD_1X"') }'; then
    echo "FAIL: interactive goodput degraded under 2x mixed overload: ${INT_GOOD_2X} < ${PRIORITY_GOODPUT_MIN} * ${INT_GOOD_1X} req/s" >&2
    exit 1
fi
# Gate D: interactive tail stays inside the request timeout.
if awk 'BEGIN { exit !('"$INT_P99_2X"' > '"$TIMEOUT_MS"') }'; then
    echo "FAIL: interactive p99 at 2x mixed overload not bounded: ${INT_P99_2X} ms > ${TIMEOUT_MS} ms" >&2
    exit 1
fi
# Gate E: bulk is degraded, not starved — aging keeps it completing.
if [ -z "$BULK_OK_2X" ] || ! awk 'BEGIN { exit !('"${BULK_OK_2X:-0}"' > 0) }'; then
    echo "FAIL: no bulk requests completed under 2x mixed overload (starved: aging not working?)" >&2
    exit 1
fi
# Gate G: the mixed 2x run put the scheduler under pressure, and bulk
# took it.
if [ "$BULK_SHED_2X" -le 0 ]; then
    echo "FAIL: the bulk tier shed nothing at 2x mixed offered load: the run never overloaded admission" >&2
    exit 1
fi
echo "priority gates: interactive goodput 2x/1x = ${INT_GOOD_2X}/${INT_GOOD_1X} req/s (>= ${PRIORITY_GOODPUT_MIN}), interactive p99 2x = ${INT_P99_2X} ms <= ${TIMEOUT_MS} ms, bulk completed = ${BULK_OK_2X}, bulk shed = ${BULK_SHED_2X}: OK" >&2

if [ "$QUICK" != "1" ]; then
    echo "run 5/5: admission OFF, 2x offered load (the collapse being prevented)..." >&2
    one_run "$RATE2" off "$OUT_DIR/noadmit_2x.json" noadmit_2x
    P99_NOADMIT=$(field_of "$OUT_DIR/noadmit_2x.json" p99_ms)
    GOOD_NOADMIT=$(field_of "$OUT_DIR/noadmit_2x.json" goodput_rps)
    echo "admission off at 2x: goodput ${GOOD_NOADMIT} req/s, p99 ${P99_NOADMIT} ms" >&2
    # Contrast gate: without admission the served tail must be worse —
    # that latency IS the unbounded queueing the shedder removes.
    if awk 'BEGIN { exit !('"$P99_2X"' >= '"$P99_NOADMIT"') }'; then
        echo "FAIL: admission control did not improve overload p99 (${P99_2X} ms >= ${P99_NOADMIT} ms)" >&2
        exit 1
    fi
    echo "admission control bounds the overload tail: OK" >&2
fi
