#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json, plus the program's ungated
workloads (EXTRA_WORKLOADS), at tiny scale (--tiny, one second), once
untraced and once traced, and checks that the result line has
exactly the keys correct/attempted/failed/metrics and every metric
BENCHMARK.json names, with its unit. Then it
runs each workload with --inject-wrong (one answer flipped before
verification) and checks that the run fails without printing a result.
Lists every failure and exits non-zero if there is any.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads the program runs that BENCHMARK.json does not gate (see
# README.md); smoke-tested so they keep working.
EXTRA_WORKLOADS = ["community_read", "hash_spill"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    cmd += list(extra)
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_result(workload, trace, proc, metrics, errors):
    tag = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        errors.append("%s: exit %d: %s" % (tag, proc.returncode, proc.stderr[-500:]))
        return
    res = result_line(proc.stdout)
    if res is None:
        errors.append("%s: last line is not JSON" % tag)
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: keys %s" % (tag, sorted(res)))
        return
    if res["correct"] is not True or res["attempted"] < 1 or res["failed"] != 0:
        errors.append("%s: correct/attempted/failed = %r/%r/%r" %
                      (tag, res["correct"], res["attempted"], res["failed"]))
    got = res["metrics"]
    if set(got) != {m["name"] for m in metrics}:
        errors.append("%s: metric names differ: missing %s, extra %s" % (
            tag, sorted({m["name"] for m in metrics} - set(got)),
            sorted(set(got) - {m["name"] for m in metrics})))
    for m in metrics:
        entry = got.get(m["name"])
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r, want %r" %
                          (tag, m["name"], entry.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (tag, m["name"], value))
        elif trace == 0 and value <= 0:
            errors.append("%s: end-to-end metric %s is %r" % (tag, m["name"], value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for name in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        check_result(name, 0, run(name, 0), spec["end_to_end"], errors)
        check_result(name, 1, run(name, 1), spec["per_layer"], errors)
        bad = run(name, 0, ["--inject-wrong"])
        if bad.returncode == 0 or result_line(bad.stdout) is not None:
            errors.append("%s: an injected wrong answer did not fail the run" % name)
        print("smoke: %s checked" % name, flush=True)
    for e in errors:
        print("smoke: FAIL: " + e)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
