#!/usr/bin/env bash
# Run the figure-reproduction bench binaries and collect their
# machine-readable outputs (BENCH_*.json with per-layer bottleneck
# and activity-energy reports, BENCH_*.prom textfile-collector dumps,
# and self-contained BENCH_*.html run reports with spatial heatmaps
# and roofline attribution) into one directory.
#
# Usage: scripts/bench.sh [outdir] [bench...]
#        scripts/bench.sh --compare <baseline-dir> [outdir] [bench...]
#   outdir  where BENCH_*.{json,prom,html} and the captured stdout
#           logs land (default: bench-results)
#   bench   bench binary names to run (default: fig12_inference
#           fig13_training fig15_memory_noc serve_sweep
#           table3_comparison)
#
# --compare diffs the fresh BENCH_*.json against the committed
# baselines in <baseline-dir> (see bench/baselines/). The simulator
# is deterministic, so each file must match its baseline byte for
# byte once the host-only values ("wall_ms", "git_describe") are
# blanked: cycles, energy, stall classes, histograms, spatial
# counters, rooflines and manifests are all gated. A change that is
# meant to be host-side only must not move any of them, and an
# intended change regenerates the baselines. Baselines record their
# "quick" flag; comparing a quick run against a full baseline (or
# vice versa) is an error.
#
# --compare also runs a trace-overhead gate: quick fig12 with a live
# sampled recorder (NEUROCUBE_TRACE_SAMPLE=1024) must finish within
# 10% wall clock of the same run untraced. This is the
# zero-compromise telemetry contract — sampled tracing is cheap
# enough to leave on. The gate adds two quick fig12 runs.
#
# Environment:
#   NEUROCUBE_QUICK=1   reduced workloads for fast iteration
#   NEUROCUBE_BUILD     build directory holding the binaries
#                       (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

baseline_dir=""
if [ "${1:-}" = "--compare" ]; then
    shift
    baseline_dir="${1:?--compare needs a baseline directory}"
    shift
fi

outdir="${1:-bench-results}"
shift || true
benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=(fig12_inference fig13_training fig15_memory_noc
             serve_sweep table3_comparison)
fi

build="${NEUROCUBE_BUILD:-build}"
if [ ! -d "$build" ]; then
    echo "error: build directory '$build' not found;" \
         "run: cmake --preset default && cmake --build --preset default" >&2
    exit 1
fi

mkdir -p "$outdir"
export NEUROCUBE_BENCH_DIR="$outdir"

for bench in "${benches[@]}"; do
    bin="$build/bench/$bench"
    if [ ! -x "$bin" ]; then
        echo "error: bench binary '$bin' not built" >&2
        exit 1
    fi
    echo "=== $bench ==="
    "$bin" | tee "$outdir/$bench.log"
done

echo
echo "bench outputs in $outdir:"
ls -l "$outdir"

[ -n "$baseline_dir" ] || exit 0

# --compare: byte comparison with the host-only values blanked.
# wall_ms appears both as "wall_ms": 123.4 and as "wall_ms":123.456789
# (manifests); the mask keeps each occurrence's spacing.
echo
echo "=== comparing against baselines in $baseline_dir ==="
mask_host() {
    sed -E -e 's/("wall_ms": ?)[-+0-9.eE]+/\1_/g' \
           -e 's/("git_describe": ?)"[^"]*"/\1_/g' "$1"
}
extract_quick() {
    grep -o '"quick": *\(true\|false\)' "$1" | head -1 \
        | grep -o '\(true\|false\)$'
}

# Informational only: wall clock is host-dependent, so deltas are
# reported but never gate the comparison (the masked bytes are the
# hard gate).
report_wall() {
    paste -d' ' <(grep -o '"wall_ms": *[0-9.]*' "$2" \
                      | grep -o '[0-9.]*$') \
                <(grep -o '"wall_ms": *[0-9.]*' "$3" \
                      | grep -o '[0-9.]*$') \
        | awk -v name="$1" '
            NF == 2 { base += $1; fresh += $2 }
            END {
                if (base > 0) {
                    printf "  %s: wall %.1fms -> %.1fms (%+.1f%%,"  \
                           " informational)\n",
                           name, base, fresh, 100 * (fresh / base - 1)
                }
            }'
}

fail=0
compared=0
for fresh in "$outdir"/BENCH_*.json; do
    name="$(basename "$fresh")"
    base="$baseline_dir/$name"
    if [ ! -f "$base" ]; then
        echo "  $name: no baseline, skipped"
        continue
    fi
    fresh_quick="$(extract_quick "$fresh")"
    base_quick="$(extract_quick "$base")"
    if [ "$fresh_quick" != "$base_quick" ]; then
        echo "  $name: quick flag mismatch (fresh=$fresh_quick," \
             "baseline=$base_quick) — rerun with matching" \
             "NEUROCUBE_QUICK" >&2
        fail=1
        continue
    fi
    if cmp -s <(mask_host "$base") <(mask_host "$fresh"); then
        echo "  $name: matches the baseline byte for byte" \
             "(wall_ms, git_describe blanked)"
    else
        echo "  $name: simulated results diverged from baseline" \
             "(every field but wall_ms/git_describe must match)" >&2
        diff <(mask_host "$base") <(mask_host "$fresh") \
            | head -10 || true
        fail=1
    fi
    report_wall "$name" "$base" "$fresh"
    compared=$((compared + 1))
done

if [ "$compared" -eq 0 ]; then
    echo "error: no BENCH_*.json had a baseline in $baseline_dir" >&2
    exit 1
fi

# Trace-overhead gate: sampled tracing must be cheap enough to leave
# on. Two back-to-back quick fig12 runs — trace-off, then a live
# sampled recorder exporting chrome JSON + timeseries CSV — and the
# traced run's summed wall_ms must stay within 10%.
echo
echo "=== trace-overhead gate (quick fig12, sample=1024) ==="
gate_bin="$build/bench/fig12_inference"
if [ ! -x "$gate_bin" ]; then
    echo "error: $gate_bin not built (needed for the trace gate)" >&2
    exit 1
fi
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
mkdir -p "$gate_dir/off" "$gate_dir/on"
NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$gate_dir/off" \
    "$gate_bin" >/dev/null
NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$gate_dir/on" \
    NEUROCUBE_TRACE_EXPORT="$gate_dir/on" \
    NEUROCUBE_TRACE_SAMPLE=1024 \
    "$gate_bin" >/dev/null
wall_sum() {
    grep -o '"wall_ms": *[0-9.]*' "$1" | grep -o '[0-9.]*$' \
        | awk '{ s += $1 } END { print s }'
}
off_ms="$(wall_sum "$gate_dir/off/BENCH_fig12.json")"
on_ms="$(wall_sum "$gate_dir/on/BENCH_fig12.json")"
awk -v off="$off_ms" -v on="$on_ms" '
    BEGIN {
        if (off <= 0) {
            printf "  trace gate: unusable wall_ms baseline (%s)\n",
                   off
            exit 1
        }
        ratio = on / off
        printf "  traced %.0fms vs untraced %.0fms (x%.3f)\n",
               on, off, ratio
        if (ratio > 1.10) {
            printf "  trace gate: sampled tracing costs more than" \
                   " 10%% wall clock\n"
            exit 1
        }
    }' || fail=1
if [ "$fail" -ne 0 ]; then
    echo "bench comparison FAILED (baseline mismatch, flag" \
         "mismatch, or trace overhead)" >&2
    exit 1
fi
echo "bench comparison OK"
