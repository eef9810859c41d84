#!/usr/bin/env bash
# cluster_chaos_guard.sh — CI guard for the cluster's failure-path
# guarantees (DESIGN.md §14):
#
#   1. Seeded chaos determinism: the chaos suite (drop / delay / 503-flap /
#      truncate / partition schedules) runs under -race, and the golden
#      seeded schedule runs in TWO SEPARATE test processes whose final
#      /v1/jobs tables are byte-diffed — a chaos failure must be
#      reproducible from its seed alone, across processes.
#   2. Kill-and-restart journal replay, at the binary level: a real
#      wavepimctl with -journal takes jobs in every lifecycle stage, dies
#      by SIGKILL (no graceful anything), restarts on the same journal,
#      and must end with zero accepted jobs lost — finished jobs byte-
#      identical (report and /v1/jobs row alike), unfinished ones
#      re-dispatched to completion.
#
# Usage: scripts/cluster_chaos_guard.sh
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
CTL_PID=""
WKR_PID=""
cleanup() {
	[ -n "$CTL_PID" ] && kill -9 "$CTL_PID" 2>/dev/null || true
	[ -n "$WKR_PID" ] && kill -TERM "$WKR_PID" 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "chaos guard [1/3]: seeded chaos suite under -race"
go test -race -count 1 -run 'TestChaosSchedulesDeterministic|TestChaosPartitionExhaustsBudget|TestJournalCrashRestartLosesNothing' \
	./internal/cluster/

echo "chaos guard [2/3]: golden schedule x 2 processes, byte-diffed job tables"
CHAOS_TABLE_OUT="$TMP/table_a.json" go test -race -count 1 -run '^TestChaosGoldenTable$' ./internal/cluster/
CHAOS_TABLE_OUT="$TMP/table_b.json" go test -race -count 1 -run '^TestChaosGoldenTable$' ./internal/cluster/
if ! cmp -s "$TMP/table_a.json" "$TMP/table_b.json"; then
	echo "chaos guard: FAILED — same seed, divergent job tables:"
	diff "$TMP/table_a.json" "$TMP/table_b.json" || true
	exit 1
fi
echo "chaos guard: tables identical ($(wc -c <"$TMP/table_a.json") bytes)"

echo "chaos guard [3/3]: kill -9 and journal-replay on the real binaries"
go build -o "$TMP/wavepimctl" ./cmd/wavepimctl
go build -o "$TMP/wavepimd" ./cmd/wavepimd

CTL_PORT=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')
WKR_PORT=$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()')
CTL="http://127.0.0.1:$CTL_PORT"
JOURNAL="$TMP/jobs.jsonl"

wait_ready() {
	for _ in $(seq 1 100); do
		if curl -sf "$CTL/v1/readyz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "chaos guard: coordinator at $CTL never became ready"
	return 1
}

start_ctl() {
	"$TMP/wavepimctl" -addr "127.0.0.1:$CTL_PORT" -journal "$JOURNAL" \
		-backoff-base 10ms -backoff-cap 500ms 2>>"$TMP/ctl.log" &
	CTL_PID=$!
	wait_ready
}

start_ctl
"$TMP/wavepimd" -addr "127.0.0.1:$WKR_PORT" -workers 2 \
	-coordinator "$CTL" -name w1 -heartbeat 200ms 2>>"$TMP/wkr.log" &
WKR_PID=$!

submit() {
	local code
	code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$CTL/v1/jobs" \
		-H 'Content-Type: application/json' -d "$1")
	if [ "$code" != "202" ]; then
		echo "chaos guard: submit $1 -> $code"
		return 1
	fi
}

wait_done() {
	local id="$1" deadline=$((SECONDS + 60))
	while [ $SECONDS -lt $deadline ]; do
		if curl -sf "$CTL/v1/jobs/$id" | grep -q '"status":"done"'; then return 0; fi
		sleep 0.2
	done
	echo "chaos guard: job $id never finished"
	curl -s "$CTL/v1/jobs" || true
	return 1
}

# fast_rows prints the fast-* rows of the /v1/jobs table.
fast_rows() {
	curl -sf "$CTL/v1/jobs" | python3 -c '
import json, sys
print(json.dumps([v for v in json.load(sys.stdin) if v["id"].startswith("fast-")]))'
}

# Fast jobs: finished (terminal in the journal) before the kill.
for i in 0 1 2; do
	submit "{\"equation\":\"acoustic\",\"steps\":$((2 + i)),\"id\":\"fast-$i\"}"
done
for i in 0 1 2; do wait_done "fast-$i"; done
curl -s "$CTL/v1/jobs/fast-0" >"$TMP/fast0_before.json"
fast_rows >"$TMP/fast_rows_before.json"

# Slow jobs: accepted but queued/mid-flight when the coordinator dies.
for i in 0 1 2 3; do
	submit "{\"equation\":\"acoustic\",\"steps\":60,\"cfl\":0.3$i,\"id\":\"slow-$i\"}"
done

kill -9 "$CTL_PID"
wait "$CTL_PID" 2>/dev/null || true
CTL_PID=""

start_ctl
READY=$(curl -s "$CTL/v1/readyz")
echo "chaos guard: readyz after replay: $READY"
if ! echo "$READY" | grep -q '"journal":true'; then
	echo "chaos guard: FAILED — restarted coordinator reports no journal"
	exit 1
fi

# Zero accepted jobs lost: finished ones byte-identical, the rest finish.
for i in 0 1 2 3; do wait_done "slow-$i"; done
curl -s "$CTL/v1/jobs/fast-0" >"$TMP/fast0_after.json"
if ! cmp -s "$TMP/fast0_before.json" "$TMP/fast0_after.json"; then
	echo "chaos guard: FAILED — restored report diverges:"
	diff "$TMP/fast0_before.json" "$TMP/fast0_after.json" || true
	exit 1
fi
# The replayed table holds the finished jobs' rows exactly as served
# before the kill: worker, attempts, cached flag and stages included.
fast_rows >"$TMP/fast_rows_after.json"
if ! cmp -s "$TMP/fast_rows_before.json" "$TMP/fast_rows_after.json"; then
	echo "chaos guard: FAILED — replayed job rows diverge:"
	diff "$TMP/fast_rows_before.json" "$TMP/fast_rows_after.json" || true
	exit 1
fi
RECORDS=$(wc -l <"$JOURNAL")
echo "chaos guard: PASSED — 7/7 jobs survived kill -9 ($RECORDS journal records)"
