#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload gups-32p --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache" "$build/xdg-config" "$build/xdg-cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/xdg-config" XDG_CACHE_HOME="$build/xdg-cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
