#!/usr/bin/env bash
# Entry point of the benchmark: `bash bench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>` from the root of a checkout (any directory
# works). Everything the build and the run write stays inside the checkout:
# the Go build cache, the tunerd binary, the daemon's log, results and span
# files all go under .bench_build/ at its root.
set -eu
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPROXY=off GOTOOLCHAIN=local
cd "$bench_dir"
exec go run . "$@"
