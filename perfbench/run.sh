#!/usr/bin/env bash
# Builds the benchmark from the source checkout it sits in and runs it
# from the checkout's root with the given arguments, keeping every build
# and scratch file under .bench_build/ there:
#
#	bash perfbench/run.sh --workload train-hybrid --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's caches, temporary files and user configuration
# (including its telemetry counters) all stay inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
