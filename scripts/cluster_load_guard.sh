#!/usr/bin/env bash
# cluster_load_guard.sh — push JOBS (default 200) concurrent jobs through
# a 3-worker coordinator + wavepimd cluster under the race detector and
# demand zero errors. The measured throughput and latency percentiles
# come out of TestClusterLoadGuard (internal/cluster/load_test.go) as a
# fixed-field-order JSON document.
#
# Usage: scripts/cluster_load_guard.sh   (CI: -race, 0 errors)
#
# Env: JOBS (default 200) — must stay >= 200 for the committed guarantee.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-200}"
RESULT=$(mktemp)
LOG=$(mktemp)
trap 'rm -f "$RESULT" "$LOG"' EXIT

echo "cluster load guard: $JOBS concurrent jobs, 3 workers, -race"
if ! CLUSTER_LOAD=1 CLUSTER_LOAD_JOBS="$JOBS" CLUSTER_LOAD_OUT="$RESULT" \
	go test -race -run '^TestClusterLoadGuard$' -count 1 -v ./internal/cluster/ >"$LOG" 2>&1; then
	cat "$LOG"
	echo "cluster load guard: FAILED"
	exit 1
fi
grep -E 'cluster load:' "$LOG" || true

RESULT="$RESULT" JOBS="$JOBS" python3 - <<'EOF'
import json
import os
import sys

res = json.load(open(os.environ["RESULT"]))
jobs = int(os.environ["JOBS"])

if res["errors"] != 0:
    sys.exit(f"cluster load guard: {res['errors']} errors")
if res["jobs"] < jobs:
    sys.exit(f"cluster load guard: only {res['jobs']} of {jobs} jobs completed")
if res["jobs"] < 200:
    sys.exit(f"cluster load guard: {res['jobs']} jobs is below the 200-job guarantee")
print(f"cluster load guard: {res['jobs']} jobs, 0 errors, "
      f"{res['throughput_jobs_per_sec']:.1f} jobs/s, p99 {res['p99_ms']:.1f}ms")
EOF
