#!/usr/bin/env python3
"""Build and run the end-to-end Federation.query benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload in a fresh process. The last line of
      standard output is the result as one JSON object.

  python3 perfbench/run.py --self-check [--workload NAME] [--seed N] [--seconds S]
      Runs each workload (or the one named) twice with the same seed and
      fails if any count differs between the two runs.

The benchmark is built from source with dune first; build output goes
to standard error.
"""

import argparse
import shutil
import subprocess
import sys

WORKLOADS = ["zipf-hot", "plan-miss", "scan-large", "revoke-churn"]
EXE = "_build/default/perfbench/bench.exe"
RUN_TIMEOUT_S = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    cmd = dune()
    if cmd is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    r = subprocess.run(
        cmd + ["build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return r.returncode == 0


def run(args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    try:
        r = subprocess.run(
            [EXE] + args,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return r.returncode, r.stdout


def counts(stdout):
    for line in stdout.splitlines():
        if line.startswith("counts "):
            return line[len("counts "):]
    return None


def self_check(workloads, seed, seconds):
    ok = True
    for w in workloads:
        args = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        seen = []
        for _ in range(2):
            code, out = run(args, capture=True)
            if code != 0 or counts(out) is None:
                print(f"{w}: run failed (exit {code})", file=sys.stderr)
                return False
            seen.append(counts(out))
        same = seen[0] == seen[1]
        ok = ok and same
        print(f"{w}: {'counts repeat' if same else 'COUNTS DIFFER'}: {seen[0]}")
        if not same:
            print(f"{w}: second run: {seen[1]}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    if a.self_check:
        workloads = [a.workload] if a.workload else WORKLOADS
        good = self_check(workloads, 1 if a.seed is None else a.seed, a.seconds or 10)
        print("self-check passed" if good else "self-check FAILED")
        return 0 if good else 1
    if None in (a.workload, a.seed, a.seconds, a.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
