#!/usr/bin/env bash
# Warn-only comparison of a fresh benchmark run against the committed
# baseline. Never fails the build: shared CI runners are too noisy for a
# hard gate, so regressions surface as WARNING lines in the job log.
#
#   scripts/bench_compare.sh BENCH_timing.json /tmp/bench_current.json
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-BENCH_timing.json}"
CUR="${2:?usage: bench_compare.sh baseline.json current.json}"

# Fail up front with a clear message instead of letting awk/join die with
# a cryptic one: a missing baseline usually means the file was never
# committed (or a new BENCH_*.json section was added to bench.sh without
# regenerating), a missing current file means the benchmark run failed.
for f in "$BASE" "$CUR"; do
  if [ ! -r "$f" ]; then
    echo "ERROR: benchmark file '$f' is missing or unreadable." >&2
    echo "  baseline files are committed as BENCH_*.json (regenerate with scripts/bench.sh);" >&2
    echo "  the current file comes from the CI benchmark step that runs bench.sh." >&2
    exit 1
  fi
done

# The generator emits one benchmark object per line, so field extraction
# needs no JSON tooling. Output: name ns_per_op allocs_per_op frozen.
parse() {
  awk '/"name"/ {
    name = ""; ns = ""; allocs = ""; frozen = "no"
    nf = split($0, parts, /[,{}]/)
    for (i = 1; i <= nf; i++) {
      if (parts[i] ~ /"name"/)          { split(parts[i], kv, /"/); name = kv[4] }
      if (parts[i] ~ /"ns_per_op"/)     { split(parts[i], kv, /:/); gsub(/ /, "", kv[2]); ns = kv[2] }
      if (parts[i] ~ /"allocs_per_op"/) { split(parts[i], kv, /:/); gsub(/ /, "", kv[2]); allocs = kv[2] }
      if (parts[i] ~ /"frozen"/ && parts[i] ~ /true/) { frozen = "yes" }
    }
    if (name != "") print name, ns, allocs, frozen
  }' "$1"
}

# parse_live keeps only entries expected to re-run. Frozen entries are
# historical measurements of deleted code — comparing a fresh run against
# them is meaningless, so they are excluded here and labeled in the
# speedup report below.
parse_live() { parse "$1" | awk '$4 == "no" { print $1, $2, $3 }'; }

# Host comparability: the baseline records the core count it was measured
# on (bench.sh's "cores" field; absent in baselines predating it). When the
# current host's core count differs, wall-clock ratios compare different
# machines — parallel benchmarks especially — so ns/op regressions degrade
# to NOTEs and only the (host-independent) allocation counts stay warnings.
cores=$(nproc 2>/dev/null || echo 1)
base_cores=$(awk -F'[:,]' '/"cores"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' "$BASE")
ns_severity=WARNING
if [ -n "$base_cores" ] && [ "$base_cores" != "$cores" ]; then
  echo "NOTE: baseline was measured on ${base_cores} cores, this host has ${cores}: ns/op ratios are not comparable (reported as NOTEs)"
  ns_severity=NOTE
fi

status=ok
while read -r name bns ballocs cns callocs; do
  printf '%-32s ns/op %10d -> %10d    allocs/op %5d -> %5d\n' \
    "$name" "$bns" "$cns" "$ballocs" "$callocs"
  # 1.6x wall-clock tolerance absorbs runner noise; the allocation slack
  # absorbs first-iteration pool ramp at short -benchtime values.
  if [ "$cns" -gt "$((bns * 8 / 5))" ]; then
    echo "$ns_severity: $name ns/op regressed ${cns} vs baseline ${bns} (>1.6x)"
    [ "$ns_severity" = WARNING ] && status=warn
  fi
  if [ "$callocs" -gt "$((ballocs + 32))" ]; then
    echo "WARNING: $name allocs/op regressed ${callocs} vs baseline ${ballocs}"
    status=warn
  fi
done < <(join <(parse_live "$BASE" | sort) <(parse_live "$CUR" | sort))

# Keys present on one side only never reach the join above; name them so a
# renamed or dropped benchmark is visible instead of silently uncompared.
comm -23 <(parse_live "$BASE" | awk '{print $1}' | sort) \
         <(parse_live "$CUR"  | awk '{print $1}' | sort) |
  while read -r name; do
    echo "NOTE: baseline key $name missing from the current run (not compared)"
  done
comm -13 <(parse_live "$BASE" | awk '{print $1}' | sort) \
         <(parse_live "$CUR"  | awk '{print $1}' | sort) |
  while read -r name; do
    echo "NOTE: current run key $name has no committed baseline (not compared)"
  done

if [ -z "$(parse "$BASE")" ]; then
  echo "ERROR: no benchmark entries found in '$BASE' — wrong or truncated file?" >&2
  exit 1
fi

# Speedup report against frozen generations: a frozen baseline entry
# named <X>PreFork pins the ns/op of the clone-per-run code <X> replaced,
# <X>PreBatch pins the unbatched fork-path code the batched group replay
# replaced, <X>PreShard pins the timing engine before its replay
# adopted the message-window model, and <X>PreBlock pins network
# construction before its forward layers were register-blocked and its
# feature extraction parallelised. PreFork/PreBatch carry a >=3x
# speedup floor; PreShard carries a parity floor instead — the windowed
# engine must stay within 25% of the engine it replaced. PreBlock carries
# a 2x floor: at GOMAXPROCS 1, where only the blocked kernels count, it
# measured 3.6x.
# The batched-vs-unbatched floor is skipped on single-core hosts: the
# batched path's worker parallelism cannot show there, so the honest
# ratio is lower and a warning would be noise.
while read -r name prens; do
  printf '%-32s (frozen baseline, not re-run)\n' "$name"
  floor=3.0
  case "$name" in
    *PreBatch) base="${name%PreBatch}"; label="pre-batch" ;;
    *PreFork)  base="${name%PreFork}";  label="pre-fork" ;;
    *PreShard) base="${name%PreShard}"; label="pre-shard"; floor=0.75 ;;
    *PreBlock) base="${name%PreBlock}"; label="pre-block"; floor=2.0 ;;
    *)         continue ;;
  esac
  cur=$(parse "$CUR" | awk -v n="$base" '$1 == n { print $2 }')
  [ -n "$cur" ] || continue
  speedup=$(awk -v pre="$prens" -v cur="$cur" 'BEGIN { printf "%.2f", pre / cur }')
  printf '%-32s %10d ns/op %s -> %10d ns/op now (%sx)\n' \
    "$base" "$prens" "$label" "$cur" "$speedup"
  if [ "$label" = "pre-batch" ] && [ "$cores" -lt 2 ]; then
    echo "NOTE: $base batched speedup not gated on ${cores}-core host (needs >=2 cores)"
    continue
  fi
  if [ "$ns_severity" = NOTE ] && [ "$label" != "pre-shard" ]; then
    echo "NOTE: $base $label speedup not gated (baseline from a ${base_cores}-core host)"
    continue
  fi
  if awk -v s="$speedup" -v f="$floor" 'BEGIN { exit !(s < f) }'; then
    echo "WARNING: $base $label speedup ${speedup}x below the ${floor}x floor"
    status=warn
  fi
done < <(parse "$BASE" | awk '$4 == "yes" { print $1, $2 }')

# Store fast-path gate: when the file carries the daemon serving
# benchmarks, the warm (store-hit) path must stay >=10x faster than a
# cold compute; below that the result store is no longer earning its keep.
cold=$(parse "$CUR" | awk '$1 == "BenchmarkDcrmdHotServe/cold" { print $2 }')
warm=$(parse "$CUR" | awk '$1 == "BenchmarkDcrmdHotServe/warm" { print $2 }')
if [ -n "$cold" ] && [ -n "$warm" ]; then
  ratio=$(awk -v c="$cold" -v w="$warm" 'BEGIN { printf "%.1f", c / w }')
  echo "dcrmd serve: cold ${cold} ns/op, warm ${warm} ns/op (${ratio}x)"
  if awk -v r="$ratio" 'BEGIN { exit !(r < 10.0) }'; then
    echo "WARNING: warm serve speedup ${ratio}x below the 10x floor"
    status=warn
  fi
fi

# Cold-start warm-start gate (warn-only): a second process fetching the
# multi-checkpoint artifact set from the disk tier should beat building it
# cold by >=3x. This is the cross-process win of the artifact store; both
# variants build on one goroutine, so the ratio needs no core-count gating.
# The zero-recompute claim is asserted inside the benchmark itself and by
# the CI warm-start gate.
cold=$(parse "$CUR" | awk '$1 == "BenchmarkColdStart/cold" { print $2 }')
second=$(parse "$CUR" | awk '$1 == "BenchmarkColdStart/secondprocess" { print $2 }')
if [ -n "$cold" ] && [ -n "$second" ]; then
  ratio=$(awk -v c="$cold" -v s="$second" 'BEGIN { printf "%.2f", c / s }')
  echo "cold start: cold ${cold} ns/op, second process ${second} ns/op (${ratio}x)"
  if awk -v r="$ratio" 'BEGIN { exit !(r < 3.0) }'; then
    echo "WARNING: second-process warm start ${ratio}x below the 3x floor"
    status=warn
  fi
fi

[ "$status" = ok ] && echo "benchmarks within tolerance of the committed baseline"
exit 0
