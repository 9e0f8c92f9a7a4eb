#!/usr/bin/env python3
"""Builds and runs the xymon end-to-end benchmark.

  python3 perfbench/run.py --workload <crawl_mixed|fanout_50k|churn_durable>
                           --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
perfbench package (this directory's CMakeLists.txt, which compiles the
libraries from ../src) under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed. Build output goes to stderr.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones. The line before it
reports what is not gated: the host probe (a compute loop and a memory
pointer chase, before and after the run), the sample counts, and the CPU
time the batches got as a share of their wall time.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("crawl_mixed", "fanout_50k", "churn_durable")
RUN_TIMEOUT_S = 170


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = root / target / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", "2"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: run exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = stats.per_layer(raw) if args.trace else stats.end_to_end(raw)
    for name, (value, unit) in metrics.items():
        print("perfbench: %-32s %14.4f %s" % (name, value, unit),
              file=sys.stderr)
    info = {
        "probe": raw["probe"],
        "samples": {"batches": len(raw["batch_us"]),
                    "sub_ops": len(raw["sub_op_us"]),
                    "checkpoints": len(raw["ckpt_us"]),
                    "setups": len(raw["setup_s"])},
        "episodes": raw["episodes"],
        "rounds": raw["rounds"],
        "docs_timed": raw["docs_timed"],
        "batch_cpu_per_wall": raw["batch_cpu_us"] / sum(raw["batch_us"]),
    }
    print(json.dumps(info))
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
