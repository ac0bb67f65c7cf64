#!/usr/bin/env python3
"""Build the simulator benchmark from this checkout and run one workload.

    python3 simbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
simbench/ (which compiles the simulator from src/) with CMake into
$CARGO_TARGET_DIR/simbench, or .bench_build/simbench when that is
unset; later runs rebuild only what changed. Build output goes to
stderr. The simbench binary then replaces this process; the last line
of its standard output is the JSON result, and the traced run's spans
and program trace land in <build dir>/out/.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure and build simbench; exit non-zero on failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        result = subprocess.run(cmd, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"simbench: '{' '.join(cmd)}' failed")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "simbench"))
    build(build_dir)
    exe = os.path.join(build_dir, "simbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:]
             + ["--out-dir", os.path.join(build_dir, "out")])


if __name__ == "__main__":
    main()
