"""Smoke test of the benchmark itself: a short run of every workload.

    python3 perfbench/smoke.py [--seconds 1] [workload ...]

For each workload it checks that
  - an untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, in a result line with exactly the agreed keys, and is correct;
  - two traced runs with one seed print every per-layer metric with its
    unit, and agree exactly on the deterministic work counters;
  - the counters predicted to be zero on that workload are zero.
It also checks that the benchmark refuses to run, without a result line,
from a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run(root: str, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(res) != RESULT_KEYS:
        problems.append(f"result keys {sorted(res)}")
    if not res.get("correct"):
        problems.append("correct is false")
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1):
        problems.append(f"attempted {res.get('attempted')!r}")
    if not isinstance(res.get("failed"), int):
        problems.append(f"failed {res.get('failed')!r}")
    metrics = res.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: extra {sorted(set(metrics) - set(names))}, "
                        f"missing {sorted(set(names) - set(metrics))}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got!r}, want unit {m['unit']}")
    return problems


def check_bare_directory(bench: dict) -> list[str]:
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, bench["workloads"][0]["name"], 1, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    predictions = load(os.path.join(HERE, "predictions.json"))
    counters = predictions["deterministic_counters"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))

    for name in names:
        try:
            plain = result(run(ROOT, name, args.seed, args.seconds, 0))
            report(f"{name}: end-to-end metrics", check_result(plain, bench["end_to_end"]))
            first = result(run(ROOT, name, args.seed, args.seconds, 1))
            second = result(run(ROOT, name, args.seed, args.seconds, 1))
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            report(f"{name}: runs", [str(exc)])
            continue
        report(f"{name}: per-layer metrics", check_result(first, bench["per_layer"]))
        a, b = first["metrics"], second["metrics"]
        report(f"{name}: counters repeat across two traced runs", [
            f"{c}: {a[c]['value']} then {b[c]['value']}"
            for c in counters if c in a and c in b and a[c]["value"] != b[c]["value"]
        ])
        report(f"{name}: bypass predictions", [
            f"{c} = {a[c]['value']}, predicted 0"
            for c in predictions["workloads"][name]["zero"] if a.get(c, {}).get("value") != 0
        ])
    report("bare directory is refused", check_bare_directory(bench))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
