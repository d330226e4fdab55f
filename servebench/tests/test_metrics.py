#!/usr/bin/env python3
"""Checks the benchmark's output contract against BENCHMARK.json.

For every workload, with tracing off and on, one short run must
  - end with one JSON object holding exactly correct/attempted/failed/metrics,
    correct true, failed 0 and attempted >= 1;
  - report exactly the BENCHMARK.json metrics of its mode (end_to_end with
    --trace 0, per_layer with --trace 1), each with its unit;
  - print each of those metrics on exactly one "metric <name>" report line.

    python3 servebench/tests/test_metrics.py      (from the checkout root)

Builds through run.py, then runs the binary for each case (~10 minutes).
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def check(workload, trace, spec):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "servebench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    errors = []
    if out.returncode != 0:
        return ["exit code %d" % out.returncode]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys %s" % sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        errors.append("correct=%s failed=%s attempted=%s" % (
            result["correct"], result["failed"], result["attempted"]))
    want = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in want]
    if sorted(result["metrics"]) != sorted(names):
        errors.append("metric names differ: %s" % sorted(
            set(result["metrics"]) ^ set(names)))
    for m in want:
        got = result["metrics"].get(m["name"], {})
        if sorted(got) != ["unit", "value"] or got.get("unit") != m["unit"]:
            errors.append("%s: %s" % (m["name"], got))
        report = [l for l in lines[:-1]
                  if l.split()[:2] == ["metric", m["name"]]]
        if len(report) != 1 or report[0].split()[3] != m["unit"]:
            errors.append("%s printed %d times" % (m["name"], len(report)))
    return errors


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, spec)
            failures += bool(errors)
            print("%s %s --trace %d %s" % ("FAIL" if errors else "pass",
                                           w["name"], trace,
                                           "; ".join(errors)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
