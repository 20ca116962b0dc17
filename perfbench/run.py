#!/usr/bin/env python3
"""Build and run the fbsim end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the simulator from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the fbsim_perfbench binary.  Its standard output is passed
through; its last line is the result JSON.  With --trace 1 the span
file the binary writes is checked with scripts/validate_trace.py and
the result is marked incorrect when the check fails.

Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; fail on error or timeout."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"{' '.join(cmd[:3])} ... failed: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "-j2", "--target",
                "fbsim_perfbench"], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "fbsim_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return build_dir, binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir, binary = build()
    spans = os.path.join(build_dir, f"spans-{args.workload}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"fbsim_perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("fbsim_perfbench printed no result line")

    print("\n".join(lines[:-1]))
    if args.trace:
        validator = os.path.join(ROOT, "scripts", "validate_trace.py")
        check = subprocess.run([sys.executable, validator, spans],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=60)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
