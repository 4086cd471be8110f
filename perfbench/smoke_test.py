#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that an untraced run prints
every end-to-end metric and a traced run every per-layer metric, each with
its unit, and that both pass their output checks. Then it injects faults and checks that the run fails: an extra
infeasible pair in a `batch` and an `exact` solve, and a recovered
`serve-write` state that differs from the state before the crash. Exits 0
iff all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, fault=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    if fault:
        command += ["--fault", fault]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"],
                   label + ": runs and passes its checks")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   label + ": result has exactly the four result keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   label + ": attempted >= 1 and nothing failed")
            metrics = result["metrics"]
            for metric in spec[listed]:
                got = metrics.get(metric["name"])
                expect(got is not None and got.get("unit") == metric["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       "%s: %s prints in %s" % (label, metric["name"],
                                                metric["unit"]))
            if trace == 0:
                for metric in spec[listed]:
                    value = metrics.get(metric["name"], {}).get("value", 0)
                    expect(value > 0, "%s: %s is not 0" % (label,
                                                           metric["name"]))

    for workload, fault in (("batch", "infeasible-pair"),
                            ("exact", "infeasible-pair"),
                            ("serve-write", "recovered-state")):
        code, result, stdout = run(workload, 0, fault)
        expect(code != 0 and result is not None and not result["correct"]
               and "CHECK FAILED" in stdout,
               "%s with fault %s fails the run" % (workload, fault))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
