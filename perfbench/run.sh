#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload lsm-write --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and Go's own state files all stay in
# the build directory inside the checkout ($CARGO_TARGET_DIR when set,
# else .bench_build).
set -euo pipefail

if [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
