#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through to the benchmark binary:
#
#   bash benchmark/run.sh --workload scale --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1                 # all four workloads
#   bash benchmark/run.sh compare A.json -- B.json
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory. The build needs the contango
# module one directory above this script; without it the build fails and
# the script exits non-zero before anything runs.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

# The go command keeps telemetry counters under the user config directory.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/contango-bench" .) >&2
exec "$out/contango-bench" "$@"
