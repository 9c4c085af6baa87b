"""Tracing overhead: traced minus untraced end-to-end metrics, per workload.

    python3 perfbench/overhead.py [--seed 1] [--seconds 15] [workload ...]

Runs run.py once with --trace 1 and once with --trace 0 with the same seed
and --seconds, so that both do the same ops, and prints each end-to-end
metric from both and their difference.
Set-up is never traced, so setup_s has no traced value.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

TRACED_MARK = "traced end-to-end: "


def run(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return proc.stdout.strip().splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    print(f"{'workload':16s} {'metric':18s} {'untraced':>12s} {'traced':>12s} {'traced-untraced':>16s}")
    for name in args.workloads:
        plain = json.loads(run(name, args.seed, args.seconds, 0)[-1])["metrics"]
        traced_lines = run(name, args.seed, args.seconds, 1)
        traced = next(json.loads(line[len(TRACED_MARK):])
                      for line in traced_lines if line.startswith(TRACED_MARK))
        for metric, entry in plain.items():
            base = entry["value"]
            if metric not in traced:
                print(f"{name:16s} {metric:18s} {base:12.5g} {'-':>12s} {'-':>16s}")
                continue
            print(f"{name:16s} {metric:18s} {base:12.5g} {traced[metric]:12.5g} "
                  f"{traced[metric] - base:+16.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
