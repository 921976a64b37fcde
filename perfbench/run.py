#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload mem4_sched --seed 42 \
        --seconds 20 --trace 0

Run from the repository root.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Stdout
carries one fingerprint line per simulation and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes a Chrome
trace-event file of its coarse spans next to the build.  Exits non-zero
without a result line if the build fails, the benchmark fails, or its
output does not match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (first time only) and build perf_bench; return its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perf_bench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perf_bench")


def check_result(result, spec, trace):
    """Raise ValueError unless @result matches BENCHMARK.json's contract."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        missing = sorted({m["name"] for m in want} - set(got))
        extra = sorted(set(got) - {m["name"] for m in want})
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for m in want:
        entry = got[m["name"]]
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
            raise ValueError(f"illegal name or unit: {m}")
        if set(entry) != {"value", "unit"} or entry["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: {entry} (want unit {m['unit']})")
        v = entry["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            raise ValueError(f"{m['name']}: value {v!r} is not a number")


def run(binary, argv, spec, trace, timeout=RUN_TIMEOUT_S):
    """Run @binary; echo its fingerprint lines; return the checked result."""
    proc = subprocess.Popen([binary] + argv, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"benchmark exceeded {timeout} s")
    if proc.returncode:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    result = json.loads(lines[-1])
    check_result(result, spec, trace)
    for line in lines[:-1]:
        print(line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise ValueError(f"unknown workload {args.workload}")
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        binary = build()
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.trace:
            argv += ["--trace-out", os.path.join(
                build_dir(), f"trace_{args.workload}_seed{args.seed}.json")]
        result = run(binary, argv, spec, args.trace)
    except (OSError, RuntimeError, ValueError) as e:
        log(str(e))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
