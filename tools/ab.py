"""Time two `wcs` source trees on the same benchmark ops, in one process.

    python tools/ab.py OTHER/src src --workload cold-sweep --seed 1 --rounds 3

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

Workloads that run each op in a fresh interpreter (`cli-readme`) are
refused: time them with perfbench/run.py.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import os
import pickle
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the first tree's src directory")
    ap.add_argument("b", help="the second tree's src directory")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if cls.probe_code is not None:
        raise SystemExit(
            f"{args.workload} runs each op in a fresh interpreter; use perfbench/run.py"
        )
    sides = [make_side(cls, args.seed, load_tree(src, name))
             for src, name in ((args.a, "wcs_a"), (args.b, "wcs_b"))]
    ops = [op for _ in range(args.rounds) for op in sides[0].next_round()]

    seconds = [[0.0] * len(ops), [0.0] * len(ops)]
    differ = []
    for i, op in enumerate(ops):
        md5 = [None, None]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            seconds[side][i], md5[side] = timed(sides[side], op)
        if md5[0] != md5[1]:
            differ.append(op)

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
