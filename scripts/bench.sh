#!/usr/bin/env bash
# Regenerate the committed benchmark baselines.
#
# Runs the steady-state timing-replay benchmarks (BenchmarkRunKernel, its
# Detection/Correction variants and the Fig. 8 exposure replay
# BenchmarkRunKernelExposure) into BENCH_timing.json (or $1), the
# campaign fast-path benchmarks (BenchmarkCampaignFig6/9) into
# BENCH_campaign.json (or $2), the daemon serving benchmarks
# (BenchmarkDcrmdHotServe cold/warm/dup) into BENCH_serve.json (or $3),
# the checkpoint artifact cold-start benchmarks (BenchmarkColdStart
# cold/secondprocess) into BENCH_coldstart.json (or $4), and the C-NN
# network construction benchmark (BenchmarkTrain) into BENCH_nn.json (or
# $5).
# The campaign file also carries frozen historical measurements: the
# pre-fork clone-path numbers under the *PreFork names and the pre-batch
# one-run-per-replay fork-path numbers under the *PreBatch names, so
# scripts/bench_compare.sh can report the fast-path and batched-execution
# speedups against the code each generation replaced; the nn file carries
# the pre-blocking network construction under BenchmarkTrainPreBlock the
# same way. CI re-runs this
# with a short BENCHTIME and compares against the committed baselines
# (warn-only).
#
#   scripts/bench.sh                  # refresh all baselines (1s rounds)
#   BENCHTIME=100x scripts/bench.sh timing.json campaign.json serve.json coldstart.json nn.json
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${1:-BENCH_timing.json}"
CAMPAIGN_OUT="${2:-BENCH_campaign.json}"
SERVE_OUT="${3:-BENCH_serve.json}"
COLD_OUT="${4:-BENCH_coldstart.json}"
NN_OUT="${5:-BENCH_nn.json}"

# Frozen historical baselines, marked "frozen": true — kept as data,
# never re-run, because the code they measured is gone;
# scripts/bench_compare.sh labels and skips them accordingly.
#   *PreFork:  the clone-per-run campaign path, measured at the commit
#              that introduced copy-on-write forking.
#   *PreBatch: the fork + checkpoint path executing one run per
#              functional replay, measured at the commit that introduced
#              batched group replay.
# (Same benchmark configurations, -benchtime 2s, same host class.)
FROZEN_ENTRIES='    {"name": "BenchmarkCampaignFig6PreFork", "frozen": true, "iterations": 0, "ns_per_op": 141245682, "bytes_per_op": 16833190, "allocs_per_op": 2209},
    {"name": "BenchmarkCampaignFig9PreFork", "frozen": true, "iterations": 0, "ns_per_op": 205210604, "bytes_per_op": 18726577, "allocs_per_op": 9303},
    {"name": "BenchmarkCampaignFig6PreBatch", "frozen": true, "iterations": 0, "ns_per_op": 30349036, "bytes_per_op": 727318, "allocs_per_op": 795},
    {"name": "BenchmarkCampaignFig9PreBatch", "frozen": true, "iterations": 0, "ns_per_op": 37191367, "bytes_per_op": 717144, "allocs_per_op": 729},'

#   *PreShard: the timing engine before the message-window replay model,
#              measured at the commit that introduced it.
# (Same benchmark configurations, -benchtime 1s, single-core host.)
TIMING_FROZEN_ENTRIES='    {"name": "BenchmarkRunKernelPreShard", "frozen": true, "iterations": 0, "ns_per_op": 2440147, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkRunKernelDetectionPreShard", "frozen": true, "iterations": 0, "ns_per_op": 4255882, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkRunKernelCorrectionPreShard", "frozen": true, "iterations": 0, "ns_per_op": 9522676, "bytes_per_op": 0, "allocs_per_op": 0},'

#   *PreBlock: nn.Train with one-output-at-a-time forward layers and
#              serial feature extraction, measured on the code the
#              register-blocked layers and parallel features replaced.
# (Same benchmark configuration, -benchtime 1s, the median of 11 runs on
# the 2-core host at GOMAXPROCS 2.)
NN_FROZEN_ENTRIES='    {"name": "BenchmarkTrainPreBlock", "frozen": true, "iterations": 0, "ns_per_op": 526096744, "bytes_per_op": 2999904, "allocs_per_op": 1213},'

# Host metadata recorded in every baseline: wall-clock numbers of parallel
# benchmarks only reproduce on a comparable host, so the compare script
# reads the recorded core count before warning on them.
CORES=$(nproc 2>/dev/null || echo 1)
MAXPROCS="${GOMAXPROCS:-$CORES}"
GO_VERSION=$(go version | { read -r _ _ v _; echo "$v"; })

# render_json RAW BENCHTIME [EXTRA_ENTRY_LINES] -> JSON on stdout
render_json() {
  awk -v benchtime="$2" -v extra="${3:-}" \
      -v cores="$CORES" -v maxprocs="$MAXPROCS" -v gover="$GO_VERSION" '
    BEGIN { n = 0 }
    $1 ~ /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      names[n] = name; iters[n] = $2; ns[n] = $3; bytes[n] = $5; allocs[n] = $7
      n++
    }
    /^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
    END {
      printf "{\n"
      printf "  \"benchtime\": \"%s\",\n", benchtime
      printf "  \"cpu\": \"%s\",\n", cpu
      printf "  \"cores\": %d,\n", cores
      printf "  \"gomaxprocs\": %d,\n", maxprocs
      printf "  \"go\": \"%s\",\n", gover
      printf "  \"benchmarks\": [\n"
      if (extra != "") printf "%s\n", extra
      for (i = 0; i < n; i++)
        printf "    {\"name\": \"%s\", \"iterations\": %d, \"ns_per_op\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n", \
          names[i], iters[i], ns[i], bytes[i], allocs[i], (i < n-1 ? "," : "")
      printf "  ]\n}\n"
    }
  ' <<<"$1"
}

raw=$(go test ./internal/timing -run '^$' \
  -bench 'BenchmarkRunKernel(Detection|Correction|Exposure)?$' \
  -benchmem -benchtime "$BENCHTIME")
echo "$raw" >&2
render_json "$raw" "$BENCHTIME" "$TIMING_FROZEN_ENTRIES" > "$OUT"
echo "wrote $OUT" >&2

raw=$(go test ./internal/experiments -run '^$' \
  -bench 'BenchmarkCampaignFig(6|9)$' \
  -benchmem -benchtime "$BENCHTIME")
echo "$raw" >&2
render_json "$raw" "$BENCHTIME" "$FROZEN_ENTRIES" > "$CAMPAIGN_OUT"
echo "wrote $CAMPAIGN_OUT" >&2

raw=$(go test ./cmd/dcrmd -run '^$' \
  -bench 'BenchmarkDcrmdHotServe' \
  -benchmem -benchtime "$BENCHTIME")
echo "$raw" >&2
render_json "$raw" "$BENCHTIME" > "$SERVE_OUT"
echo "wrote $SERVE_OUT" >&2

# Checkpoint artifact cold start: one op warms a four-checkpoint campaign
# session's full artifact set on one goroutine — built into an empty store
# (cold), and fetched from the disk tier in a fresh process
# (secondprocess). The cold/secondprocess ratio is the artifact store's
# cross-process win; it does not depend on the core count.
raw=$(go test ./internal/experiments -run '^$' \
  -bench 'BenchmarkColdStart' \
  -benchmem -benchtime "$BENCHTIME")
echo "$raw" >&2
render_json "$raw" "$BENCHTIME" > "$COLD_OUT"
echo "wrote $COLD_OUT" >&2

# C-NN network construction: one op is nn.Train(TrainConfig{}), which every
# experiments.NewSuite pays. Feature extraction fans over GOMAXPROCS, so the
# ratio to the frozen pre-block number grows with the core count.
raw=$(go test ./internal/nn -run '^$' \
  -bench 'BenchmarkTrain$' \
  -benchmem -benchtime "$BENCHTIME")
echo "$raw" >&2
render_json "$raw" "$BENCHTIME" "$NN_FROZEN_ENTRIES" > "$NN_OUT"
echo "wrote $NN_OUT" >&2
