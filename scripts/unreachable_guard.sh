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
# and the reason it stays although no binary reaches it. An entry is a
# test oracle or a model of the paper, and its reason names the test or
# the model; a test that needs a hook goes through production API instead.
allow=$(
  cat <<'EOF'
internal/pim/nor/circuit.go -- scalar NOR circuit, the oracle of every slab test
internal/pim/nor/fp32.go -- scalar NOR fp32 datapath, the oracle of every slab test
internal/pim/nor/intops.go -- scalar NOR integer primitives, the oracle of every slab test
internal/pim/nor/newton.go -- Newton-Raphson divide/sqrt, the Section 4.3 ablation bench_test.go runs
internal/cluster/chaos/ -- seeded fault-injecting transport, the harness of TestCoordinatorLifecyclePinned's chaos tables
internal/wavepim/batching.go -- Figure 6/7 batch model, kept until ROADMAP item 14 decides batching
internal/wavepim/lutload.go -- LoadWithLUT/VerifyLUTLoaded, the functional proof of Algorithm 1
mesh.(*Mesh).Slice -- z-slice decomposition, kept until ROADMAP item 14 decides batching
mesh.(*Mesh).NumSlices -- z-slice count of the batch model, kept until ROADMAP item 14 decides batching
wavepim.NewFunctionalAcousticExpanded -- Figure 8/9 expanded layout, checked against dg
wavepim.expandedSchedule -- schedule of NewFunctionalAcousticExpanded
wavepim.(*FunctionalAcoustic).ReadRHS -- RHS read-back TestFunctionalAcousticRHSMatchesReference compares with dg
wavepim.(*Compiler).ReadAcousticContrib -- reads one element's RHS for ReadRHS
wavepim.(*system).RHSOnce -- one RHS evaluation TestFunctionalAcousticRHSMatchesReference compares with dg
wavepim.WithChip -- pins a one-tile chip, so TestBatchedSessionMatchesResident can compare batched with resident sessions
wavepim.resetPlanCache -- empties the process-wide plan cache, so each TestPlanCache* test starts cold
pim/sim.(*Engine).ExecBlocks -- one-shot reference path TestPricedBlocksMatchExecBlocks checks the priced replay against
pim/sim.groupPrograms -- groups ExecBlocks' programs
pim/fault.(*BlockFaults).Pending -- unscrubbed faults, what TestScrubCorrectsTransients checks the scrubber against
pim/fault.(*BlockFaults).Counts -- a block's injected faults, which TestBlockKernelsMatchReference compares with its model
pim/nor.SlabBits.Lane -- one lane of a slab, which TestSlabIntBlocksDifferential compares with the scalar circuit
cluster.(*Coordinator).Registry -- worker registry TestCoordinatorLifecyclePinned registers through
gpu.Model.MemoryBound -- the paper's claim that the GPU baseline is memory bound
quad.(*Rule).Differentiate -- GLL differentiation, checked against the derivative matrix
quad.(*Rule).Integrate -- GLL quadrature, checked for polynomial exactness
pim/isa.Decode -- inverse of Encode, the round-trip oracle of the encoding tests
pim/isa.field -- bit-field reader of Decode
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
