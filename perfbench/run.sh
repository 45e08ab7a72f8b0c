#!/usr/bin/env bash
# Builds the benchmark from the surrounding source tree and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload osc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/ at
# the repository root (build cache, binary, the sdcd data directories).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The Go toolchain keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" -dir "$out" "$@"
