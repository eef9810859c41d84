#!/usr/bin/env bash
# wavepimd_smoke.sh — CI end-to-end smoke test of the telemetry daemon.
#
# Builds cmd/wavepimd, starts it on a random loopback port, then:
#   1. checks /v1/healthz and /v1/readyz answer 200, and that the legacy
#      unversioned paths are gone (404)
#   2. submits one small acoustic job on the canonical healing fault
#      scenario and polls it to completion
#   3. scrapes /v1/metrics and runs the exposition through a strict parser,
#      requiring the per-phase span histograms and fault-rung counters the
#      job must have produced
#
# Any non-2xx response, stuck run, or unparseable exposition fails the
# script. The daemon is torn down via SIGTERM (graceful drain) on exit.
#
# Usage: scripts/wavepimd_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=$(mktemp -d)/wavepimd
go build -o "$BIN" ./cmd/wavepimd

PORT=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')
BASE="http://127.0.0.1:$PORT"

"$BIN" -addr "127.0.0.1:$PORT" -workers 1 &
DAEMON=$!
trap 'kill -TERM $DAEMON 2>/dev/null; wait $DAEMON 2>/dev/null; rm -rf "$(dirname "$BIN")"' EXIT

# fetch CODE PATH [curl args...] — GET unless args say otherwise; the body
# lands on stdout, and a status other than CODE fails the script.
fetch() {
	local want="$1" path="$2"
	shift 2
	local body code
	body=$(mktemp)
	code=$(curl -sS -o "$body" -w '%{http_code}' "$@" "$BASE$path")
	cat "$body" && rm -f "$body"
	if [ "$code" != "$want" ]; then
		echo "FAIL: $path returned $code, want $want" >&2
		exit 1
	fi
}

for i in $(seq 1 50); do
	if curl -sf "$BASE/v1/healthz" >/dev/null 2>&1; then break; fi
	if [ "$i" = 50 ]; then echo "FAIL: daemon never became healthy" >&2; exit 1; fi
	sleep 0.1
done
fetch 200 /v1/healthz >/dev/null
fetch 200 /v1/readyz >/dev/null
# The legacy unversioned surface is gone.
fetch 404 /healthz >/dev/null
fetch 404 /runs >/dev/null
echo "healthz/readyz ok on $BASE (legacy paths 404)"

ID=$(fetch 202 /v1/runs -X POST \
	-d '{"equation":"acoustic","steps":4,"faults":"seed=4,flip=1e-5,stuck=1e-6"}' |
	python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "submitted run $ID"

for i in $(seq 1 100); do
	STATUS=$(fetch 200 "/v1/runs/$ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["status"])')
	case "$STATUS" in
	done) break ;;
	failed) echo "FAIL: run $ID failed" >&2; exit 1 ;;
	esac
	if [ "$i" = 100 ]; then echo "FAIL: run $ID stuck in $STATUS" >&2; exit 1; fi
	sleep 0.2
done
echo "run $ID done"

METRICS=$(mktemp)
fetch 200 /v1/metrics >"$METRICS"
python3 - "$METRICS" <<'EOF'
import re
import sys

with open(sys.argv[1]) as f:
    text = f.read()
name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
typed = {}
seen = set()
for line in text.rstrip("\n").splitlines():
    if line.startswith("# TYPE "):
        parts = line.split()
        if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
            sys.exit(f"bad TYPE line: {line!r}")
        if parts[2] in typed:
            sys.exit(f"duplicate TYPE for {parts[2]}")
        typed[parts[2]] = parts[3]
        continue
    if line.startswith("#"):
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$", line)
    if not m:
        sys.exit(f"unparseable sample line: {line!r}")
    name, labels, value = m.groups()
    base = re.sub(r"_(total|bucket|sum|count)$", "", name)
    if name not in typed and base not in typed:
        sys.exit(f"sample {name!r} has no TYPE header")
    if value not in ("+Inf", "-Inf", "NaN"):
        float(value)
    seen.add(name + (labels or ""))

required = [
    'sim_phase_span_seconds_count{kind="blocks",phase="volume"}',
    'sim_phase_span_seconds_count{kind="blocks",phase="flux-x+"}',
    'sim_fault_rung_events_total{rung="ecc"}',
    'sim_fault_rung_events_total{rung="rollback"}',
    'sim_fault_mttr_seconds_bucket{rung="ecc",le="+Inf"}',
    'wavepimd_runs_total{status="done"}',
]
for want in required:
    if want not in seen:
        sys.exit(f"exposition missing {want}")
print(f"metrics ok: {len(seen)} samples, {len(typed)} families, "
      f"{len(required)} required series present")
EOF
rm -f "$METRICS"

echo "PASS"
