#!/usr/bin/env bash
# stream_smoke.sh — two-process smoke of the wire streaming transport: a
# real moed with -stream-addr serves 10k decisions across 8 pipelined
# tenant sessions (checkpoint-sync + group commit on), takes a SIGTERM
# mid-fleet idle and must drain clean (exit 0), then a restart on the same
# checkpoint directory must resume every tenant's decision counter exactly
# where the acked stream left off.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
MOED_PID=""
cleanup() {
    [ -n "$MOED_PID" ] && kill -9 "$MOED_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

ADDR=127.0.0.1:9187
STREAM=127.0.0.1:9188
CKPT="$WORK/ckpt"
TENANTS=8
DECISIONS=10000
# streamdrive serves DECISIONS/(TENANTS*4) frames of 4 observations per
# tenant; this is the per-tenant count the restart must resume from.
PER_TENANT=$(( DECISIONS / (TENANTS * 4) * 4 ))

go build -o "$WORK/moed" ./cmd/moed
go build -o "$WORK/streamdrive" ./scripts/streamdrive

start_moed() {
    "$WORK/moed" -listen "$ADDR" -stream-addr "$STREAM" \
        -checkpoint-dir "$CKPT" -checkpoint-sync -group-commit-window 1ms \
        -max-inflight 4096 -drain-window 15s &
    MOED_PID=$!
    for _ in $(seq 1 100); do
        curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "stream-smoke: moed never came up" >&2
    exit 1
}

check_acked() { # check_acked <json> <want-per-tenant-delta>
    python3 - "$1" "$2" "$TENANTS" <<'PY'
import json, sys
rep = json.loads(sys.argv[1])
want, tenants = int(sys.argv[2]), int(sys.argv[3])
assert rep["errors"] == [], rep["errors"]
assert rep["decisions_acked"] == want * tenants, (rep["decisions_acked"], want * tenants)
print(f'stream-smoke: {rep["decisions_acked"]} decisions acked over {tenants} sessions '
      f'({rep["decisions_per_sec"]:.0f}/s)')
PY
}

echo "stream-smoke: phase 1 — $DECISIONS decisions over $TENANTS wire sessions"
start_moed
OUT=$("$WORK/streamdrive" -target "$STREAM" -tenants "$TENANTS" -decisions "$DECISIONS")
check_acked "$OUT" "$PER_TENANT"

echo "stream-smoke: phase 2 — SIGTERM, drain must be clean (exit 0)"
kill -TERM "$MOED_PID"
if ! wait "$MOED_PID"; then
    echo "stream-smoke: moed exited non-zero on SIGTERM drain" >&2
    exit 1
fi
MOED_PID=""

echo "stream-smoke: phase 3 — restart, counters must resume at $PER_TENANT/tenant"
start_moed
OUT=$("$WORK/streamdrive" -target "$STREAM" -tenants "$TENANTS" \
    -decisions $(( TENANTS * 4 * 8 )) -base "$PER_TENANT")
check_acked "$OUT" 32

kill -TERM "$MOED_PID" && wait "$MOED_PID" || { echo "stream-smoke: final drain failed" >&2; exit 1; }
MOED_PID=""
echo "stream-smoke: OK"
