#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny simulation length.

    python3 perfbench/smoke_test.py [--binary PATH]

Checks three things:
  1. every workload prints every BENCHMARK.json metric, each with its
     unit and a legal name, traced and untraced, with no failed check;
  2. the traced driver reproduces SmtSystem::run on all seven
     schedulers under both kernels (perf_bench --selftest);
  3. the layer self times plus sim.loop_self_ns account for the traced
     driver's wall time (also --selftest).
Builds perf_bench first (as run.py does) unless --binary is given.
Also registered as the perfbench_smoke test of perfbench/CMakeLists.txt.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling run.py)

TINY = ["--insts", "2000", "--warmup", "1000", "--seconds", "0"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary")
    args = ap.parse_args()
    binary = args.binary or run.build()
    spec = run.load_spec()
    failures = 0

    for w in spec["workloads"]:
        for trace in (0, 1):
            what = f"{w['name']} --trace {trace}"
            try:
                result = run.run(binary, ["--workload", w["name"], "--seed",
                                          "42", "--trace", str(trace)] + TINY,
                                 spec, trace)
                ok = result["correct"] and result["failed"] == 0
            except (RuntimeError, ValueError) as e:
                print(f"  {e}")
                ok = False
            print(f"{'ok  ' if ok else 'FAIL'} metrics and checks: {what}")
            failures += not ok

    selftest = subprocess.run([binary, "--selftest"])
    failures += selftest.returncode != 0

    print("smoke test:", "passed" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
