#!/usr/bin/env bash
# bench.sh — run the repo's performance trajectory suite and emit a
# BENCH_pr<N>.json point: hot-path benchmark results (ns/op, allocs/op)
# plus the wall-clock of the full experiments regression suite. Every
# perf-focused PR runs this and commits the emitted file so the speed
# history of the simulator lives in the repo.
#
# Usage:
#   scripts/bench.sh [output.json]          # default BENCH_ci.json
#   BENCHTIME=300000x scripts/bench.sh      # heavier, steadier numbers
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_ci.json}"
# The PR number is derived from the output filename (BENCH_pr<N>.json),
# so future PRs get correctly stamped points by just naming their file;
# any other name (CI's BENCH_ci.json) is stamped 0.
pr="$(basename "$out" | sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1/p')"
pr="${pr:-0}"
benchtime="${BENCHTIME:-100000x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Hot-path microbenchmarks: end-to-end workloads (cache -> coherence ->
# network -> memctrl), the coherence read-miss cycle, the link pump, the
# event engine, the histogram, and the cache probe and fill on both L2
# geometries. Iteration-count benchtime keeps points comparable.
go test -run '^$' -bench 'BenchmarkWorkloadDependentLoad$|BenchmarkWorkloadGUPS$' \
    -benchtime "$benchtime" -benchmem . | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkReadMiss' \
    -benchtime "$benchtime" -benchmem ./internal/coherence | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkLinkPump$' \
    -benchtime "$benchtime" -benchmem ./internal/network | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkEngineChurnTyped$' \
    -benchtime "$benchtime" -benchmem ./internal/sim | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkHistogramRecord$' \
    -benchtime "$benchtime" -benchmem ./internal/stats | tee -a "$tmp"
go test -run '^$' -bench 'BenchmarkCacheAccess$|BenchmarkCacheFill$' \
    -benchtime "$benchtime" -benchmem ./internal/cache | tee -a "$tmp"

# Wall-clock of the experiments regression suite — the headline number
# the ROADMAP's "as fast as the hardware allows" goal tracks.
start=$(date +%s.%N)
go test -count=1 ./internal/experiments >/dev/null
end=$(date +%s.%N)
suite=$(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.2f", b-a}')

go run ./scripts/benchjson -pr "$pr" -suite-seconds "$suite" \
    -baseline scripts/bench_baseline.json -o "$out" < "$tmp"
echo "bench: wrote $out (experiments suite ${suite}s)" >&2
