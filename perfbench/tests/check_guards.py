#!/usr/bin/env python3
"""Bad input and too-small hosts are refused up front.

    check_guards.py <ulipc_perfbench binary>

Each case must exit 2 with a message on stderr and print no result, before
any server is forked.
"""
import os
import subprocess
import sys


def run(binary, args, cpus=None):
    def pin():
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
    return subprocess.run([binary] + args, capture_output=True, text=True,
                          timeout=60, preexec_fn=pin)


def main():
    binary = sys.argv[1]
    base = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    first_cpu = min(os.sched_getaffinity(0))
    cases = [
        ("unknown workload", ["--workload", "nope"] + base, None, "unknown workload"),
        ("bad trace flag", ["--workload", "pingpong", "--seed", "1",
                            "--seconds", "1", "--trace", "2"], None, "--trace"),
        ("bad seconds", ["--workload", "pingpong", "--seed", "1",
                         "--seconds", "0", "--trace", "0"], None, "--seconds"),
        ("one CPU for pingpong", ["--workload", "pingpong"] + base,
         {first_cpu}, "needs 2 threads"),
        ("one CPU for fanin-stream", ["--workload", "fanin-stream"] + base,
         {first_cpu}, "needs 3 threads"),
    ]
    failed = False
    for name, args, cpus, expect in cases:
        res = run(binary, args, cpus)
        ok = (res.returncode == 2 and expect in res.stderr
              and '"correct"' not in res.stdout)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {res.returncode}, "
              f"stderr {res.stderr.strip().splitlines()[:1]}")
        failed |= not ok
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
