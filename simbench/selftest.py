#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 simbench/selftest.py [--workload <name>] [--seconds <s>]

Run from the repository root. For each workload (or the one named):
  - the printed metrics are exactly those BENCHMARK.json declares,
    with the declared units;
  - two runs with the same seed print identical simulated results
    (sim_*, serve_*) and identical per-layer counts;
  - a second seed still passes the bit-exact output check;
  - a deliberately corrupted output is counted as a failed operation.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Units of host-time measurements, which differ run to run.
HOST_UNITS = {"s", "ms", "ns/cycle", "1/s", "MB"}


def run(workload, seed, seconds, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL: {' '.join(cmd)} printed nothing\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def deterministic(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in HOST_UNITS and not k.startswith("bench.")}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])

    for w in workloads:
        for trace in (0, 1):
            code, a = run(w, 1, args.seconds, trace)
            _, b = run(w, 1, args.seconds, trace)
            check(code == 0 and a["correct"] and b["correct"]
                  and a["failed"] == 0,
                  f"{w} trace={trace}: seed 1 passes the output check")
            units = {k: v["unit"] for k, v in a["metrics"].items()}
            check(units == declared[trace],
                  f"{w} trace={trace}: metrics and units match "
                  "BENCHMARK.json")
            check(deterministic(a) == deterministic(b),
                  f"{w} trace={trace}: same seed, identical simulated "
                  "results and counts")
        _, c = run(w, 2, args.seconds, 0)
        check(c["correct"] and c["failed"] == 0,
              f"{w}: seed 2 passes the output check")
        _, d = run(w, 1, args.seconds, 0, "--corrupt-output", "1")
        check(not d["correct"] and d["failed"] >= 1,
              f"{w}: a corrupted output counts as failed "
              f"({d['failed']} of {d['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
