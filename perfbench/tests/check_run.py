#!/usr/bin/env python3
"""Shortest-run check of one workload, in both modes.

    check_run.py <ulipc_perfbench binary> <BENCHMARK.json> <workload>

Runs the workload for one second untraced and traced, and checks that each
run exits 0, reports every metric BENCHMARK.json names for its mode (and no
other) with the unit named there, and reports no failure.
"""
import json
import subprocess
import sys


def check(binary, spec, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=100)
    errors = []
    if res.returncode != 0:
        errors.append(f"exit code {res.returncode}: {res.stderr.strip()}")
        return errors
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"correct={result['correct']} failed={result['failed']}")
    if result["attempted"] < 1:
        errors.append("nothing attempted")
    if not any(l.strip().startswith("failed_ratio 0 ") for l in lines):
        errors.append("no 'failed_ratio 0' line")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            errors.append(f"missing {name}")
        elif got[name]["unit"] != unit:
            errors.append(f"{name}: unit {got[name]['unit']}, want {unit}")
        elif not isinstance(got[name]["value"], (int, float)):
            errors.append(f"{name}: value {got[name]['value']!r}")
    for name in got:
        if name not in want:
            errors.append(f"unexpected metric {name}")
    return errors


def main():
    binary, spec_path, workload = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    failed = False
    for trace in (0, 1):
        errors = check(binary, spec, workload, trace)
        for e in errors:
            print(f"{workload} trace {trace}: {e}")
        failed |= bool(errors)
        print(f"{workload} trace {trace}: {'FAIL' if errors else 'ok'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
