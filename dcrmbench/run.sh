#!/usr/bin/env bash
# Builds the dcrm benchmark from the checkout it sits in and runs it:
#
#   bash dcrmbench/run.sh --workload figures|campaign|timing|all \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary, campaign
# stores and trace files all live under .bench_build (or $CARGO_TARGET_DIR),
# so nothing outside the checkout is written. The last line of standard
# output is the JSON result; everything else is a human-readable report.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/experiments" ]]; then
  echo "dcrmbench: run from the repository root (the library sources are missing here)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off

(cd "$root/dcrmbench" && go build -trimpath -o "$build/dcrmbench" .)
exec "$build/dcrmbench" --workdir "$build" "$@"
