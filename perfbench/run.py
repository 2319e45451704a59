#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload compare-nine --seed 1 --seconds 45 \
        --trace 0

Steps, all inside the checkout this file lives in:

1. Build the measuring program from source with CMake into the build
   directory (``$CARGO_TARGET_DIR`` if set, else ``.bench_build``). An
   up-to-date build is a no-op.
2. Generate the workload's inputs for ``--seed`` into a fresh run directory
   under ``.bench_run`` (untimed, in its own process, so the measured
   process's peak memory excludes it).
3. Replay them (``perfbench run``), which measures for ``--seconds``.
4. Check the accuracy it reports against ``perfbench/reference.json`` and
   print the result object as the last line of standard output.

Exit status is 0 when every output check passed, 1 when a check failed
(the result is still printed, with ``"correct": false``), and 2 when the
benchmark could not run at all (no result is printed).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compare-nine", "guarded-durable")
# Wall-clock cap of one generation or measurement process.
STEP_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def finish(proc):
    """Kills proc if it is still running and waits for it to end."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return -1
    finally:
        finish(proc)


def build():
    """Configures and builds the measuring program; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"], 600) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "--parallel", jobs], 840) != 0:
        return None
    return os.path.join(out, "perfbench")


def measure(binary, args, run_dir):
    """Generates and replays one workload; returns (exit code, stdout lines)."""
    gen = [binary, "gen", "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--dir=" + run_dir]
    if args.quick:
        gen.append("--quick=1")
    if run_quiet(gen, STEP_TIMEOUT_S) != 0:
        return 2, []
    cmd = [binary, "run", "--workload=" + args.workload, "--dir=" + run_dir,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--decorators=%d" % args.decorators]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, errors="replace")
    try:
        out, _ = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 2, []
    finally:
        finish(proc)
    return proc.returncode, out.splitlines()


def parse_report(lines):
    """Splits the program's output into (detail object, result object)."""
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    return detail, result


def gate_metrics(trace, detail, result):
    """Keeps in the result exactly the metrics BENCHMARK.json lists.

    The program also measures figures that are too noisy on a shared
    machine to bound (e.g. the p99 of 1000 slices that the host steals
    from); those move to the detail line. Returns False when a listed
    metric is missing.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    measured = result["metrics"]
    if any(name not in measured for name in names):
        return False
    result["metrics"] = dict((name, measured[name]) for name in names)
    detail["not_gated"] = dict((k, v) for k, v in measured.items()
                               if k not in result["metrics"])
    return True


def check_reference(workload, detail):
    """Fails any per-method RAE or SOFIA AFE worse than its reference.

    The check is one-sided: errors are lower-is-better, and a seed can land
    well below the recorded median (a fault shows as NaN or a blow-up).
    """
    with open(os.path.join(HERE, "reference.json")) as f:
        expected = json.load(f)["workloads"][workload]
    observed = dict(("rae." + k, v) for k, v in detail["rae"].items())
    observed["afe.SOFIA"] = detail["afe"]
    failures = []
    for key, ref in expected.items():
        got = observed.get(key)
        if got is None or not got <= ref["value"] * (1 + ref["tolerance"]):
            failures.append("%s = %s, worse than reference %s + %g%%" %
                            (key, got, ref["value"], 100 * ref["tolerance"]))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the benchmark's own tests: shrunken streams, decorators off.
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--decorators", type=int, choices=(0, 1), default=1,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    # A terminated run still stops its child and removes its run directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("library sources not found next to perfbench/", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d-%d" %
                           (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        code, lines = measure(binary, args, run_dir)
        trace = os.path.join(run_dir, "trace.json")
        if os.path.exists(trace):  # Chrome trace of the traced passes.
            os.replace(trace, os.path.join(
                ROOT, ".bench_run", "trace-%s.json" % args.workload))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if code not in (0, 3) or len(lines) < 2:
        print("measurement failed (exit %d)" % code, file=sys.stderr)
        return 2
    detail, result = parse_report(lines)
    if not gate_metrics(args.trace, detail, result):
        print("measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2
    failures = list(detail["checks"])
    if not args.quick:
        reference_failures = check_reference(args.workload, detail)
        failures += reference_failures
        if reference_failures:
            result["correct"] = False
    for line in lines[:-2]:
        print(line)
    print(json.dumps(detail))
    for failure in failures:
        print("check failed: " + failure, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
