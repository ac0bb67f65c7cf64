#!/usr/bin/env bash
# Profile one bench binary and print a hot-function report.
#
# Usage: scripts/profile.sh <bench> [args...]
#   bench   bench binary name (e.g. fig12_inference, serve_sweep)
#   args    passed through to the binary
#
# Prefers `perf record`/`perf report` when the host has perf (and the
# kernel allows sampling); otherwise falls back to gprof, building
# the bench tree with -pg -O2 into build-prof/ on first use. Both
# paths honor the bench environment knobs:
#
#   NEUROCUBE_ENGINE=legacy|event|threaded  engine override (the gprof
#                                           path defaults it to event:
#                                           gprof samples only the main
#                                           thread)
#   NEUROCUBE_QUICK=1                       reduced workloads
#   NEUROCUBE_BENCH_DIR=<dir>               JSON output directory
#
# Reports land in profile-results/:
#   <bench>.perf.data / <bench>.perf.txt    (perf path)
#   <bench>.gprof.txt                       (gprof path)
# Raw gprof counters (<bench>.gmon.out) stay with the instrumented
# tree in build-prof/ — they are binary, build-specific, and not
# worth committing (profile-results/*.gmon.out is gitignored too).
set -euo pipefail

cd "$(dirname "$0")/.."

bench="${1:?usage: scripts/profile.sh <bench> [args...]}"
shift

outdir="profile-results"
mkdir -p "$outdir"
export NEUROCUBE_BENCH_DIR="${NEUROCUBE_BENCH_DIR:-$outdir}"

have_perf() {
    command -v perf >/dev/null 2>&1 || return 1
    # Sampling may still be forbidden (containers, perf_event_paranoid).
    perf record -o /dev/null -- true >/dev/null 2>&1
}

if have_perf; then
    build="${NEUROCUBE_BUILD:-build}"
    bin="$build/bench/$bench"
    if [ ! -x "$bin" ]; then
        echo "error: bench binary '$bin' not built" >&2
        exit 1
    fi
    data="$outdir/$bench.perf.data"
    echo "=== perf record $bench ==="
    perf record -g -o "$data" -- "$bin" "$@"
    # sed, not head: head exits early, and the report's SIGPIPE would
    # fail the script under pipefail.
    perf report -i "$data" --stdio | sed -n '1,60p' \
        | tee "$outdir/$bench.perf.txt"
    echo
    echo "full report: perf report -i $data"
    exit 0
fi

# gprof fallback: needs an instrumented build (-pg keeps symbols and
# emits gmon.out at exit; -O2 so the profile reflects the optimized
# hot loops).
prof_build="build-prof"
if [ ! -d "$prof_build" ]; then
    echo "=== configuring instrumented tree in $prof_build/ ==="
    cmake -B "$prof_build" -S . \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="-pg -O2 -g" \
        -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
fi
# Incremental: a no-op when the tree is already current.
cmake --build "$prof_build" --target "$bench" -j"$(nproc)"

bin="$prof_build/bench/$bench"
echo "=== gprof $bench ==="
# gprof samples the main thread only: profile the one-scheduler
# engine unless the caller picked one.
export NEUROCUBE_ENGINE="${NEUROCUBE_ENGINE:-event}"
# gmon.out is written to the current directory at process exit.
rundir="$(mktemp -d)"
(cd "$rundir" && "$OLDPWD/$bin" "$@")
gmon="$prof_build/$bench.gmon.out"
mv "$rundir/gmon.out" "$gmon"
rmdir "$rundir" 2>/dev/null || true

gprof --flat-profile "$bin" "$gmon" \
    | sed -n '1,40p' | tee "$outdir/$bench.gprof.txt"
echo
echo "call graph: gprof $bin $gmon | less"
