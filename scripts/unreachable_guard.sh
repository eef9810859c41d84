#!/usr/bin/env bash
# Unreachable-code guard: every function declared in non-test internal/
# code must be linked into at least one shipped binary (cmd/*, examples/*
# and bench/wavebench), unless the allowlist below names it with a reason.
#
# Reachability is measured, not grepped. Each binary is built with
# inlining off (-gcflags=all=-l), so a reachable function keeps its own
# text symbol, and the linker's dead-code pass has already dropped every
# function no path reaches; go tool nm lists what is left. The declared
# set comes from the sources the current build context compiles (go
# list's GoFiles, so a build-tagged file such as the portable crossbar
# kernels counts only where it builds). gofmt keeps every top-level
# declaration on a line that starts with "func", which is what the parser
# below reads; init functions are skipped.
#
# Generic code: go tool nm prints an instantiation as F[go.shape.int] or
# (*T[go.shape.int]).M, and a declaration reads F[T any] or (t *T[S]) M,
# so the brackets are stripped on both sides. Assembly functions are
# linked under an ABI suffix (.abi0), which is stripped too.
#
# An allowlist entry that excuses nothing (its functions are all linked,
# or it names nothing declared) fails the guard as stale, so the list
# only ever names code that no binary runs.
#
# Usage: scripts/unreachable_guard.sh   (from anywhere inside the repo)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# One entry a line: a file or directory (path from the repo root, a
# directory ending in /) or a function as the guard prints it, then " -- "
# and the reason it stays although no binary reaches it.
allow=$(
  cat <<'EOF'
internal/pim/nor/circuit.go -- scalar NOR circuit, the oracle of every slab test
internal/pim/nor/fp32.go -- scalar NOR fp32 datapath, the oracle of every slab test
internal/pim/nor/intops.go -- scalar NOR integer primitives, the oracle of every slab test
internal/pim/nor/newton.go -- Newton-Raphson divide/sqrt, the Section 4.3 ablation bench_test.go runs
internal/cluster/chaos/ -- seeded fault-injecting transport, a test harness for the coordinator
internal/wavepim/batching.go -- Figure 6/7 batch model, kept until ROADMAP item 14 decides batching
internal/wavepim/lutload.go -- LoadWithLUT/VerifyLUTLoaded, the functional proof of Algorithm 1
mesh.(*Mesh).Slice -- z-slice decomposition, kept until ROADMAP item 14 decides batching
wavepim.NewFunctionalAcousticExpanded -- Figure 8/9 expanded layout, checked against dg
wavepim.expandedSchedule -- schedule of NewFunctionalAcousticExpanded
wavepim.(*FunctionalAcoustic).ReadRHS -- RHS read-back the functional-vs-dg tests compare
wavepim.(*Compiler).ReadAcousticContrib -- reads one element's RHS for ReadRHS
wavepim.(*system).RHSOnce -- one RHS evaluation the functional-vs-dg tests compare
wavepim.WithChip -- test hook: pins a session's chip (one-tile batched sessions)
pim/sim.(*Engine).ExecBlocks -- one-shot reference path the priced replay is checked against
pim/sim.groupPrograms -- groups ExecBlocks' programs
pim/chip.(*Chip).AllocatedBlocks -- test hook: blocks a layout allocated
pim/fault.(*BlockFaults).Pending -- test hook: faults a block has not yet scrubbed
gpu.Model.MemoryBound -- the paper's claim that the GPU baseline is memory bound
quad.(*Rule).Differentiate -- GLL differentiation, checked against the derivative matrix
quad.(*Rule).Integrate -- GLL quadrature, checked for polynomial exactness
pim/isa.Decode -- inverse of Encode, the round-trip oracle of the encoding tests
pim/isa.field -- bit-field reader of Decode
pim/nor.(*SlabCircuit).AddFloat32Batch -- slab entry point the slab-vs-scalar tests drive
pim/nor.(*SlabCircuit).MulFloat32Batch -- slab entry point the slab-vs-scalar tests drive
pim/nor.(*SlabCircuit).AddFP32Slab -- slab entry point the slab-vs-scalar tests drive
pim/nor.(*SlabCircuit).MulFP32Slab -- slab entry point the slab-vs-scalar tests drive
pim/nor.(*SlabCircuit).checkSlabArgs -- argument check of the slab test entry points
pim/nor.(*SlabCircuit).IncBits -- slab primitive the slab-vs-scalar tests check
pim/nor.(*SlabCircuit).NOR -- slab gate the slab-vs-scalar tests check
pim/nor.(*SlabCircuit).nor2 -- two-input gate of SlabCircuit.NOR
pim/nor.SlabBits.Lane -- test hook: reads one lane of a slab
pim/nor.lanesFromBits -- lane transpose of the slab test entry points
pim/nor.lanesToBits -- lane transpose of the slab test entry points
pim/sim.(*Engine).Reset -- test hook: a fresh timeline over the same chip
pim/chip.Config.MaxParallelRows -- Table 3 row parallelism, checked against params
pim/fault.(*BlockFaults).Counts -- test hook: a block's injected-fault counts
pim/fault.Report.WriteJSON -- test hook: the byte-reproducibility check of fault reports
pim/intercon.(*HTree).Leaves -- Topology interface method tests size batches by
pim/intercon.(*Bus).Leaves -- Topology interface method tests size batches by
pim/intercon.(*Mesh).Leaves -- Topology interface method tests size batches by
pim/intercon.(*Torus).Leaves -- Topology interface method tests size batches by
pim/intercon.(*FlattenedButterfly).Leaves -- Topology interface method tests size batches by
pim/intercon.(*Dragonfly).Leaves -- Topology interface method tests size batches by
cluster.(*Breakers).State -- test hook: one worker's circuit state
cluster.(*Coordinator).Breakers -- test hook: the coordinator's circuit breakers
cluster.(*Coordinator).Registry -- test hook: the coordinator's worker registry
cluster.(*Ring).Len -- test hook: ring membership count
dg/opcount.Kernel.String -- fmt.Stringer of Kernel, used in test messages
mesh.(*Mesh).NodesPerFace -- test hook: face node count
mesh.(*Mesh).NumSlices -- test hook: z-slice count of the batch model
obs/eventlog.(*Logger).Debug -- level API the eventlog level-filter tests check
obs/eventlog.(*Logger).Enabled -- level API the eventlog level-filter tests check
obs/eventlog.Uint64 -- typed field the eventlog encoding tests check
obs.(*Registry).Names -- test hook: registered instrument names
obs.(*Sink).WriteProm -- test hook: a sink's Prometheus exposition
obs.(*Sink).GaugeVec -- test hook: labeled gauges on a sink
obs.(*Tracer).Dropped -- test hook: spans a bounded tracer dropped
wavepim.(*Compiler).Elastic12CriticalVolume -- twelve-block elastic critical path, checked by encode_test.go
wavepim.table5Key -- test hook: Table 5 layout lookup key
wavepim.resetPlanCache -- test hook: empties the plan cache
wavepim.(*Session).Topology -- test hook: the session's fabric name
wavepim.(*Session).WriteTrace -- test hook: a session's Chrome trace
EOF
)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Text symbols of every shipped binary, brackets and ABI suffixes
# stripped, without the module prefix.
for dir in cmd/* examples/*; do
  go build -gcflags=all=-l -o "$tmp/bin" "./$dir"
  go tool nm "$tmp/bin" >>"$tmp/nm"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bin" ./wavebench)
go tool nm "$tmp/bin" >>"$tmp/nm"

strip_brackets() {
  # Innermost [...] first, until none is left ((*T[go.shape.[]int]).M).
  sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta'
}

sed -n 's/^ *[0-9a-f]* [Tt] wavepim\/internal\/\(.*\)$/\1/p' "$tmp/nm" |
  strip_brackets | sed 's/\.abi0$//' | sort -u >"$tmp/linked"

# Functions declared in non-test internal/ code, one "file<TAB>name" a line.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
  while read -r pkg file; do
    rel="${file#"$root"/}"
    pkg="${pkg#wavepim/internal/}"
    # func Name(            -> pkg.Name
    # func (r *T[S]) Name(  -> pkg.(*T).Name
    # func (r T) Name(      -> pkg.T.Name
    sed -n -e 's/^func \([A-Za-z_][A-Za-z_0-9]*\).*/\1/p' \
      -e 's/^func ([A-Za-z_0-9]* *\(\*\{0,1\}\)\([A-Za-z_][A-Za-z_0-9]*\)\(\[[^]]*\]\)\{0,1\}) \([A-Za-z_][A-Za-z_0-9]*\).*/\1 \2 \4/p' "$file" |
      while read -r a b c; do
        if [ -z "$b" ]; then
          name="$a"
        elif [ "$a" = "*" ]; then
          name="(*$b).$c"
        else
          name="$a.$b"
        fi
        [ "$name" = init ] && continue
        printf '%s\t%s.%s\n' "$rel" "$pkg" "$name"
      done
  done | sort -u >"$tmp/declared"

# allowed_by prints the allowlist entry that excuses file $1's function
# $2, if any.
allowed_by() {
  local entry _
  while read -r entry _; do
    case "$entry" in
      */) [[ "$1" == "$entry"* ]] && echo "$entry" && return ;;
      *.go) [ "$1" = "$entry" ] && echo "$entry" && return ;;
      *) [ "$2" = "$entry" ] && echo "$entry" && return ;;
    esac
  done <<<"$allow"
  return 0
}

fail=0
: >"$tmp/used"
while IFS=$'\t' read -r rel name; do
  grep -qxF "$name" "$tmp/linked" && continue
  entry="$(allowed_by "$rel" "$name")"
  if [ -n "$entry" ]; then
    echo "$entry" >>"$tmp/used"
    continue
  fi
  echo "unreachable: $name ($rel)"
  fail=1
done <"$tmp/declared"

while read -r entry _; do
  if ! grep -qxF "$entry" "$tmp/used"; then
    echo "stale allowlist entry: $entry (no unlinked function it excuses)"
    fail=1
  fi
done <<<"$allow"

if [ "$fail" = 1 ]; then
  echo "FAIL: every function in non-test internal/ code must be linked into a binary under"
  echo "cmd/, examples/ or bench/wavebench. Delete it, give it a caller, or allowlist it"
  echo "in $0 with a reason; remove allowlist entries that no longer excuse anything."
  exit 1
fi
echo "OK: $(wc -l <"$tmp/declared") internal/ functions, each linked into a shipped binary or allowlisted ($(sort -u "$tmp/used" | wc -l) allowlist entries in use)"
