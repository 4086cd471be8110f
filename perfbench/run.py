#!/usr/bin/env python3
"""Build the GEACC benchmark program from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Builds perfbench/CMakeLists.txt (the library from src/, geacc_serve and
geacc_bench) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs it. Build output goes to stderr; the program's last stdout line
is the JSON result. Any further arguments (--scale tiny, --fault ...) are
passed to the program. Exits non-zero without a result if the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "geacc_bench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            return None
    return os.path.join(cmake_dir, "geacc_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and program temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    program = build(build_dir, env)
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir] + extra
    try:
        return subprocess.run(command, cwd=ROOT, env=env).returncode
    finally:
        # Keep only the spans of a traced run; WALs and checkpoints go.
        spans = os.path.join(workdir, "spans.json")
        if args.trace and os.path.exists(spans):
            os.replace(spans, os.path.join(
                build_dir, "spans-%s-seed%d.json" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
