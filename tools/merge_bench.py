#!/usr/bin/env python3
"""Merge the per-PR BENCH_*.json files into one BENCH_summary.json.

Each perf PR leaves a self-describing benchmark artifact (BENCH_kernels.json,
BENCH_stream.json, BENCH_baselines.json, BENCH_pipeline.json, ...) in the
repo root. This tool folds them into a single trajectory file so the speedup
story across PRs can be read (and plotted) from one place:

    python3 tools/merge_bench.py [--dir .] [--out BENCH_summary.json]

The summary keeps, per source file: the description, the unit, the machine
block, and every "speedup_*" map. Files are ordered by their git-history
first-appearance order when known, else alphabetically.
"""

import argparse
import glob
import json
import os
import sys

# Known artifacts in the order their PRs landed; unknown files sort after
# (every BENCH_*.json in --dir is globbed, so new artifacts fold in
# automatically even before they are added here).
KNOWN_ORDER = [
    "BENCH_kernels.json",    # PR 1: sparse observed-entry kernel layer.
    "BENCH_stream.json",     # PR 2: sparse streaming Step.
    "BENCH_baselines.json",  # PR 3: baselines on the ObservedSweep core.
    "BENCH_pipeline.json",   # PR 4: lazy StepResult eval pipeline.
    "BENCH_robustness.json", # PR 6: StreamGuard fault-tolerance layer.
    "BENCH_simd.json",       # PR 7: SIMD kernels.
    "BENCH_runtime.json",    # PR 8: sharded pipelined streaming runtime.
    "BENCH_durability.json", # PR 9: crash-consistent durability layer.
    "BENCH_obs.json",        # PR 10: unified observability subsystem.
]


def order_key(name):
    base = os.path.basename(name)
    try:
        return (0, KNOWN_ORDER.index(base))
    except ValueError:
        return (1, base)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".",
                        help="directory holding the BENCH_*.json files")
    parser.add_argument("--out", default="BENCH_summary.json",
                        help="output path of the merged summary")
    args = parser.parse_args()

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")),
                   key=order_key)
    paths = [p for p in paths
             if os.path.basename(p) != os.path.basename(args.out)]
    if not paths:
        print(f"no BENCH_*.json files under {args.dir}", file=sys.stderr)
        return 1

    trajectory = []
    for path in paths:
        with open(path) as f:
            try:
                data = json.load(f)
            except json.JSONDecodeError as e:
                print(f"skipping unparsable {path}: {e}", file=sys.stderr)
                continue
        entry = {"file": os.path.basename(path)}
        for key in ("description", "unit", "machine"):
            if key in data:
                entry[key] = data[key]
        speedups = {k: v for k, v in data.items()
                    if k.startswith("speedup")}
        if speedups:
            entry["speedups"] = speedups
        trajectory.append(entry)

    summary = {
        "description": ("Per-PR benchmark trajectory, merged from the "
                        "individual BENCH_*.json artifacts by "
                        "tools/merge_bench.py. Each entry keeps its source "
                        "file's description and speedup maps; see the "
                        "source files for the full raw timings."),
        "trajectory": trajectory,
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(trajectory)} benchmark files merged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
