#!/usr/bin/env python3
"""Builds and runs the monitor benchmark.

    python3 perfbench/run.py --workload fleet_steady --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, against ../src) into $CARGO_TARGET_DIR
(default .bench_build) and runs the benchmark's own tests; later runs only
rebuild what changed. The benchmark binary prints every metric by name and
unit; this script forwards those lines and ends with one JSON line holding
the metrics BENCHMARK.json declares: its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*lines):
    for line in lines:
        print(line, file=sys.stderr)


def build(build_dir):
    """Configures (once), builds, and runs the tests after a rebuild."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ beside perfbench/; run from a full checkout")
        return False
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return False
    test_bin = os.path.join(build_dir, "perfbench_test")
    stamp = os.path.join(build_dir, "perfbench_test.passed")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(test_bin)):
        if subprocess.run([test_bin], stdout=sys.stderr).returncode != 0:
            log("perfbench: the benchmark's own tests failed")
            return False
        with open(stamp, "w") as f:
            f.write("ok\n")
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    if not build(build_dir):
        return 1
    names = declared_metrics(args.trace)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.splitlines()
    # Exit code 1 still carries a result: the run finished but failed its
    # correctness checks, which the result reports as "correct": false.
    if run.returncode not in (0, 1) or not lines:
        log(*lines)
        log("perfbench: benchmark exited with %d" % run.returncode)
        return 1
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("perfbench: missing metrics %s" % missing)
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
