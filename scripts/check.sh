#!/usr/bin/env bash
# Build and test every supported configuration:
#   default  - RelWithDebInfo with trace instrumentation compiled in
#   asan     - address + undefined-behaviour sanitizers
#   notrace  - NC_TRACE compiled out (the zero-overhead configuration)
#   tsan     - thread sanitizer over the ThreadedLanes engine, whose
#              bucket threads write their own slots of one shared
#              counter array and, under a live recorder, stage events
#              for the recorder's merge (runs test_trace,
#              test_metrics, test_engine_threads (unbatched fan-out
#              and traced byte-identity cases included), test_batch,
#              test_manifest, test_serving and the quick engine fuzz;
#              see CMakePresets)
#
# The presets exclude the "long" ctest label (the 100-seed engine
# fuzz); run `ctest` directly in a build dir for the full profile.
#
# Usage: scripts/check.sh [preset...]   (default: all four)
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(default asan notrace tsan)
fi

for preset in "${presets[@]}"; do
    echo "=== [$preset] configure ==="
    cmake --preset "$preset"
    echo "=== [$preset] build ==="
    cmake --build --preset "$preset" -j "$(nproc)"
    echo "=== [$preset] test ==="
    ctest --preset "$preset"
done

# Quick-mode serving smoke: run the serve_sweep bench against the
# committed baseline — the sweep is deterministic, so its JSON must
# match bench/baselines/BENCH_serve.json byte for byte (see
# bench.sh --compare).
case " ${presets[*]} " in
*" default "*)
    echo "=== [default] serve_sweep smoke ==="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    NEUROCUBE_QUICK=1 scripts/bench.sh --compare bench/baselines \
        "$smoke_dir" serve_sweep

    # HTML report smoke: the self-contained report must be valid
    # (template markers present) and byte-deterministic across two
    # identical runs — wall_ms is host wall-clock, so it is the one
    # field normalized before the comparison.
    echo "=== [default] html report smoke ==="
    build="${NEUROCUBE_BUILD:-build}"
    mkdir -p "$smoke_dir/report_a" "$smoke_dir/report_b"
    NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$smoke_dir/report_a" \
        "$build/bench/table3_comparison" >/dev/null
    NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$smoke_dir/report_b" \
        "$build/bench/table3_comparison" >/dev/null
    report="$smoke_dir/report_a/BENCH_table3.html"
    for marker in '<!DOCTYPE html>' 'id="nc-data"' '</html>'; do
        if ! grep -qF "$marker" "$report"; then
            echo "FAIL: $report missing '$marker'"
            exit 1
        fi
    done
    normalize_wall() {
        sed -E 's/"wall_ms":[0-9.eE+-]+/"wall_ms":0/g' "$1"
    }
    if ! cmp -s <(normalize_wall "$report") \
            <(normalize_wall "$smoke_dir/report_b/BENCH_table3.html")
    then
        echo "FAIL: BENCH_table3.html differs across identical runs"
        exit 1
    fi
    echo "html report smoke passed"
    ;;
esac

echo "all presets passed: ${presets[*]}"
