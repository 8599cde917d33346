#!/usr/bin/env python3
"""Build bench_pipeline from this checkout, run one workload, report JSON.

Run from the repository root:

    python3 bench/pipeline/run.py --workload capture --seed 0 \
        --seconds 25 --trace 0

The benchmark is built with CMake into $CARGO_TARGET_DIR/pipeline
(default .bench_build/pipeline). The binary's "WORKLOAD METRIC VALUE
UNIT" lines are echoed, then the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the per_layer list, and the spans of the run are written to
<build dir>/trace-WORKLOAD-SEED.json. Any failure exits non-zero without
a JSON line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources (CMakeLists.txt, src/) are missing "
             "from " + ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload, 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "pipeline")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--work-dir", os.path.join(build_dir, "work")]
    if args.trace:
        cmd += ["--trace", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_pipeline ran longer than %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("bench_pipeline exited with %d" % proc.returncode)

    measured = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == args.workload:
            measured[fields[1]] = (fields[2], fields[3])
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("bench_pipeline did not report " + m["name"])
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" %
                 (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": float(value), "unit": unit}
    attempted = int(float(measured["ops"][0]))
    failed = int(float(measured["ops_failed"][0]))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
