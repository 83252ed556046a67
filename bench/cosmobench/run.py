#!/usr/bin/env python3
"""Builds cosmobench from source, runs one workload, and prints the result.

    python3 bench/cosmobench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the repository root. The build (CMake, RelWithDebInfo) and the
run's scratch files go to .bench_build/cosmobench. The binary's own metric
lines are passed through; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The exit code is nonzero when the build fails, the run fails, or any
catalog check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "..", "BENCHMARK.json")
BUILD = os.path.join(".bench_build", "cosmobench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "cosmobench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        sys.exit("cosmobench build failed: %s" % e)
    result = os.path.join(BUILD, "result.%s.json" % args.workload)
    if os.path.exists(result):
        os.remove(result)
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--workdir=" + os.path.join(BUILD, "work." + args.workload),
           "--json=" + result]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            BUILD, "trace.%s.json" % args.workload))
    sys.stdout.flush()
    code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    if not os.path.exists(result):
        sys.exit("cosmobench exited %d without a result" % code)

    with open(result) as f:
        out = json.load(f)
    measured = out["layers" if args.trace else "metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        sys.exit("cosmobench did not report: " + ", ".join(missing))
    print(json.dumps({
        "correct": out["correct"] and code == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"],
                                "unit": measured[m["name"]]["unit"]}
                    for m in wanted},
    }))
    sys.exit(code)


if __name__ == "__main__":
    main()
