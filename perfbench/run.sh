#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload steady_sim --seed 1 --seconds 20 --trace 0
#
# Build cache, binary and trace output stay under .bench_build/ in the
# current directory. A failed build exits non-zero without a result line.
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

# The go command's caches and its telemetry (under the user config
# directory) go to the build directory too; nothing is downloaded.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench.bin" . >&2
exec "$build/perfbench.bin" --out "$build/perfbench" "$@"
