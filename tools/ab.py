"""Time two `wcs` source trees on the same benchmark ops, in one process.

    python tools/ab.py OTHER/src src --workload cold-sweep --seed 1 --rounds 3
    python tools/ab.py OTHER/src src --workload photon-stats --seeds 1-10 --rounds 2

Both trees are imported side by side as separate packages, `wcs_a` from the
first path and `wcs_b` from the second, each with its own caches.  One
workload object per tree is built from `perfbench/workloads.py` (read, never
written) with the same seed, and its `setup` runs with `import wcs` bound to
that tree's package.  The ops of the first object's rounds then run on both,
one op at a time, the tree that runs first alternating from op to op, so
drift in machine speed falls on both sides alike.  Only `run(op)` is timed;
the workloads' reference checks are not run.

It prints each tree's ops/s, the share of ops on which the second tree was
faster, and whether the md5s of the two trees' outputs agree on every op.
An op that raises contributes its exception's type name and message, so a
typed error that one tree raises and the other does not is a difference.
Outputs are compared as plain data: dataclasses and named tuples by their
class name and fields, arrays by dtype, shape and bytes, floats by their
bits.  The exit status is 1 when some op's outputs differ.

With --seeds A-B each seed from A to B runs in turn, as above, in the same
process (the trees are imported once, so later seeds find warm caches), and
prints one line: the two rates, their ratio, the ops the second tree won
and whether the outputs agree.  A last line gives the median of the
ratios and the number of seeds on which the second tree had the higher
rate: the benchmark's rule of a gain in nine pairs of ten, in one process.

A workload that runs each op in a fresh interpreter (`cli-readme`) is
timed the same way, one child at a time:

    python tools/ab.py OTHER/src src --workload cli-readme --rounds 8

Each round runs every line of README_COMMANDS (read from
`perfbench/workloads.py`, never written) as `python -m wcs.cli ...` once
per tree, with PYTHONPATH set to that tree's src, the tree that runs first
alternating from line to line and round to round.  Its wall time includes
the interpreter's start-up and the imports.  It prints each tree's median
ms per command, their ratio, and whether the two trees' exit statuses and
stdout bytes agree on every run; the exit status is 1 when they differ.  --seed and --seeds
do not apply to it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import pickle
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_tree(src: str, name: str):
    """The `wcs` package under src, imported as the package name."""
    pkg_dir = os.path.join(os.path.abspath(src), "wcs")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def plain(obj):
    """obj as builtin data that pickles the same from either tree."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj).__name__, [plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return type(obj).__name__, [plain(v) for v in obj]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return sorted(((repr(k), plain(v)) for k, v in obj.items()))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, np.generic):
        return type(obj).__name__, obj.item()
    return obj


def digest(out) -> str:
    return hashlib.md5(pickle.dumps(plain(out), protocol=4)).hexdigest()


def make_side(cls, seed: int, package):
    workload = cls(seed, ROOT)
    saved = sys.modules.get("wcs")
    sys.modules["wcs"] = package  # what setup's `import wcs` binds
    try:
        workload.setup()
    finally:
        if saved is None:
            del sys.modules["wcs"]
        else:
            sys.modules["wcs"] = saved
    return workload


def timed(workload, op) -> tuple[float, str]:
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # the error is part of the output
        out = (type(exc).__name__, str(exc))
    return time.perf_counter() - t0, digest(out)


def compare(cls, seed: int, rounds: int, packages) -> tuple[list, list, list]:
    """The ops of one seed's rounds, each tree's seconds per op, and the
    ops whose outputs differ."""
    sides = [make_side(cls, seed, package) for package in packages]
    ops = [op for _ in range(rounds) for op in sides[0].next_round()]
    seconds = [[0.0] * len(ops), [0.0] * len(ops)]
    differ = []
    for i, op in enumerate(ops):
        md5 = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds[side][i], md5[side] = timed(sides[side], op)
        if md5[0] != md5[1]:
            differ.append(op)
    return ops, seconds, differ


def run_cli(line: str, src: str) -> tuple[float, tuple[int, bytes]]:
    """Seconds, exit status and stdout of `python -m wcs.cli` on line, in a
    fresh interpreter that imports the tree under src."""
    env = dict(os.environ)
    env.pop("WCS_LOG", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.path.abspath(src) + (os.pathsep + path if path else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "wcs.cli", *line.split()],
                          env=env, capture_output=True, check=False)
    return time.perf_counter() - t0, (proc.returncode, proc.stdout)


def compare_cli(lines, rounds: int, srcs) -> int:
    """Time each command line on both trees, print the medians, and return
    1 if some run's exit status or stdout differs between the trees."""
    seconds = {line: ([], []) for line in lines}
    differ = set()
    for r in range(rounds):
        for i, line in enumerate(lines):
            out = [None, None]
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                dt, out[side] = run_cli(line, srcs[side])
                seconds[line][side].append(dt)
            if out[0] != out[1]:
                differ.add(line)
    width = max(map(len, lines))
    print(f"{'command':{width}s}      a ms      b ms     b/a  stdout")
    totals = [0.0, 0.0]
    for line in lines:
        ms = [1e3 * statistics.median(s) for s in seconds[line]]
        totals = [t + m for t, m in zip(totals, ms)]
        print(f"{line:{width}s}  {ms[0]:8.1f}  {ms[1]:8.1f}  {ms[1] / ms[0]:6.3f}  "
              f"{'differs' if line in differ else 'equal'}")
    print(f"{'sum of the medians':{width}s}  {totals[0]:8.1f}  {totals[1]:8.1f}  "
          f"{totals[1] / totals[0]:6.3f}")
    if differ:
        print(f"stdout differs on {len(differ)} of {len(lines)} commands")
        return 1
    print(f"stdout: equal bytes on all {len(lines)} commands in every round")
    return 0


def seed_range(text: str) -> range:
    """A-B, or one seed A."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the first tree's src directory")
    ap.add_argument("b", help="the second tree's src directory")
    ap.add_argument("--workload", required=True)
    seeds = ap.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=1)
    seeds.add_argument("--seeds", type=seed_range, help="a range A-B of seeds, run in turn")
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    from workloads import README_COMMANDS, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if cls.probe_code is not None:
        if args.seeds is not None:
            raise SystemExit(f"{args.workload} takes --rounds; --seeds does not apply to it")
        print(f"{args.workload}, {args.rounds} round(s), each command in a fresh interpreter; "
              f"a {args.a}, b {args.b}")
        return compare_cli([line for line, _ in README_COMMANDS], args.rounds, (args.a, args.b))
    packages = [load_tree(args.a, "wcs_a"), load_tree(args.b, "wcs_b")]

    if args.seeds is not None:
        print(f"{args.workload}, seeds {args.seeds.start}-{args.seeds.stop - 1}, "
              f"{args.rounds} round(s) each; a {args.a}, b {args.b}")
        ratios, any_differ = [], False
        for seed in args.seeds:
            ops, seconds, differ = compare(cls, seed, args.rounds, packages)
            n = len(ops)
            rates = [n / sum(s) for s in seconds]
            ratios.append(rates[1] / rates[0])
            faster = sum(b < a for a, b in zip(*seconds))
            outputs = f"outputs differ on {len(differ)}" if differ else "outputs equal"
            print(f"seed {seed:4d}  a {rates[0]:10.2f}  b {rates[1]:10.2f} ops/s  "
                  f"({ratios[-1]:.3f}x a)  b faster on {faster} of {n} ops  {outputs}")
            any_differ = any_differ or bool(differ)
        won = sum(r > 1.0 for r in ratios)
        print(f"median {statistics.median(ratios):.3f}x a; b faster on {won} of "
              f"{len(ratios)} seeds")
        return 1 if any_differ else 0

    ops, seconds, differ = compare(cls, args.seed, args.rounds, packages)
    n = len(ops)
    rates = [n / sum(s) for s in seconds]
    faster = sum(b < a for a, b in zip(*seconds))
    print(f"{args.workload}, seed {args.seed}, {args.rounds} round(s), {n} ops")
    print(f"a {rates[0]:10.2f} ops/s  {args.a}")
    print(f"b {rates[1]:10.2f} ops/s  {args.b}  ({rates[1] / rates[0]:.3f}x a)")
    print(f"b faster on {faster} of {n} ops ({100.0 * faster / n:.1f}%)")
    if differ:
        print(f"outputs differ on {len(differ)} of {n} ops; first: {differ[0]!r}")
        return 1
    print(f"outputs: equal md5 on all {n} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
