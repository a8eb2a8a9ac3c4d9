#!/usr/bin/env python3
"""Build and run one e2ebench workload from the repository root.

    python3 e2ebench/run.py --workload ota5t-mc --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --make-reference

Builds the benchmark (Release) into .bench_build/e2ebench, then runs it.
The last stdout line is the result object, the line before it the run
identity; build output goes to stderr.  Traced runs (--trace 1) also write
their spans to .bench_build/traces/<workload>.json.  --make-reference
recomputes e2ebench/reference.json (a few minutes on 4 cores).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def build():
    # Configure every time: it is quick once cached, and it recovers from
    # an earlier configure that failed half way.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    binary = os.path.join(BUILD, "e2ebench")
    if args.make_reference:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
        cmd = [binary, "--root", ROOT,
               "--make-reference", os.path.join(HERE, "reference.json"),
               "--commit", commit or "unknown"]
        return subprocess.run(cmd).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    cmd = [binary, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
