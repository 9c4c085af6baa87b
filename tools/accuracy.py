"""Ulp ledger of the wavefunction samples of one or two `wcs` trees against
mpmath.

    python tools/accuracy.py src
    python tools/accuracy.py OTHER/src src

Each tree is imported as tools/ab.py imports it, as its own package.  The
groups are the wavefunction samples of tools/fingerprint.py's groups, from
tools/groups.py:

readme        `wcs wavefunction` as README.md runs it, parsed by the tree's
              own CLI parser (the last tree's, where there are two)
cold-sweep    k = 0..5 on x = 0:3:31 at the six cold-sweep triples
wavefunction  the wavefunction group, SI scales included

The reference is the untruncated raise summed on u = sqrt(m omega / hbar)
x^beta in mpmath, from the exact double inputs: the ground coefficients
(-1)^j / [2j]!! with brackets from mpmath's log-gamma, raised k times by
(u - D) / sqrt(2), the sum run until its last 8 terms are below 10^-dps of
its largest, times (m omega / pi hbar)^(1/4) / sqrt([k]!).  The working
precision is 60 digits plus those the sum cancels, its largest term over
its value.  A value's error is |value - ref| in ulps of ref rounded to a
double, or relative to ref where that double is 0 or subnormal.

For each tree and group it prints the samples returned as plain values,
flagged (returned with the cancellation flag) and raised, and the median,
p99 and largest error over the plain values.  With two trees it then
prints, per group, on how many samples that both return as plain values
the second tree is closer to the reference, farther and equal, and each
sample whose class (value, flagged or the error type raised) differs
between the trees.
"""

from __future__ import annotations

import argparse
import importlib
import math
import statistics
import sys

import mpmath
from ab import load_tree
from groups import cold_sweep_rows, readme_commands, wavefunction_rows

DIGITS = 60  # the reference's correct digits


class Oracle:
    """The reference of one triple and scales, rows raised at a working
    precision and grown as the samples need them."""

    def __init__(self, triple, scales):
        self.triple = triple
        self.scales = scales or (1.0, 1.0, 1.0)
        self.rows = {}  # dps -> (brackets, raised rows), each a list of mpf

    def _brackets(self, n: int) -> list:
        a, b, v = (mpmath.mpf(t) for t in self.triple)
        lg = mpmath.loggamma
        out = [mpmath.mpf(0)]
        for i in range(1, n + 1):
            out.append(mpmath.exp(lg(b * i + 1) - lg(b * i + 1 - a)
                                  + lg(b * i + 1 - a + v) - lg(b * (i - 1) + 1 - a + v)))
        return out

    def _raised(self, dps: int, length: int) -> tuple[list, list]:
        """The brackets [0..] and rows 0..12, row 12 at least length long."""
        cached = self.rows.get(dps)
        if cached is not None and len(cached[1][-1]) >= length:
            return cached
        with mpmath.workdps(dps):
            m = length + 13
            box = self._brackets(m)
            ground = [mpmath.mpf(0)] * m
            c = ground[0] = mpmath.mpf(1)
            for j in range(2, m, 2):
                c = -c / box[j]
                ground[j] = c
            h = mpmath.sqrt(mpmath.mpf(1) / 2)
            rows = [ground]
            for _ in range(12):
                last = rows[-1]
                rows.append([h * ((last[j - 1] if j else 0) - last[j + 1] * box[j + 1])
                             for j in range(len(last) - 1)])
        self.rows[dps] = box, rows
        return box, rows

    def _sum(self, k: int, x: float, dps: int):
        """(psi_k(x), digits the sum cancels) at dps digits."""
        hbar, mass, omega = (mpmath.mpf(t) for t in self.scales)
        with mpmath.workdps(dps):
            inv = mass * omega / hbar
            u = mpmath.sqrt(inv) * mpmath.mpf(x) ** mpmath.mpf(self.triple[1])
            length = 64
            while True:
                box, rows = self._raised(dps, length)
                row = rows[k][:length]
                terms = [c * u**j for j, c in enumerate(row)]
                top = max(abs(t) for t in terms)
                if top == 0 or max(abs(t) for t in terms[-8:]) <= top * mpmath.mpf(10) ** -dps:
                    break
                length *= 2
            total = mpmath.fsum(terms)
            lost = 0 if top == 0 else float(mpmath.log10(top / abs(total))) if total else math.inf
            log_fact = mpmath.fsum(mpmath.log(box[i]) for i in range(1, k + 1))
            value = (inv / mpmath.pi) ** mpmath.mpf(0.25) * mpmath.exp(-log_fact / 2) * total
        return value, lost

    def value(self, k: int, x: float):
        dps = DIGITS + 10
        while True:
            value, lost = self._sum(k, x, dps)
            if lost + DIGITS + 5 <= dps or dps > 1000:
                return value
            dps = int(min(lost, 1000)) + DIGITS + 15


def error(value: float, ref) -> float:
    """|value - ref| in ulps of ref as a double, or relative where that is
    0 or subnormal."""
    r = float(ref)
    diff = abs(mpmath.mpf(value) - ref)
    if abs(r) >= sys.float_info.min:
        return float(diff / math.ulp(r))
    return 0.0 if diff == 0 else math.inf if ref == 0 else float(diff / abs(ref))


def readme_rows(package) -> list[tuple]:
    """The README's `wcs wavefunction` command as a groups.py row."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    (argv,) = [args for args in readme_commands() if args[0] == "wavefunction"]
    args = cli.build_parser().parse_args(argv)
    points = [(k, x) for k in cli._parse_int_range(args.k) for x in cli._parse_grid(args.x)]
    return [((args.alpha, args.beta, args.nu), (args.hbar, args.mass, args.omega), points,
             args.tol)]


def outcomes(package, rows) -> list:
    """(value, flag), or the error type's name, per sample."""
    out = []
    for row in rows:
        triple, scales, points, *tol = row
        p = package.DeformationParams(*triple)
        s = package.PhysicalScales(*(scales or ()))
        kwargs = {"tol": tol[0]} if tol else {}
        for k, x in points:
            try:
                out.append(package.wavefunction_sample(k, x, p, s, **kwargs))
            except (package.errors.NumericalRangeError, package.errors.ConvergenceError) as exc:
                out.append(type(exc).__name__)
    return out


def references(rows, wanted) -> list:
    """The mpmath value of each sample some tree returned as a plain
    value, else None."""
    out, i = [], 0
    for triple, scales, points, *_ in rows:
        oracle = Oracle(triple, scales)
        for k, x in points:
            out.append(oracle.value(k, x) if wanted[i] else None)
            i += 1
    return out


def label(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    return "flagged" if outcome[1] else "value"


def ledger(name: str, outcomes_, refs) -> None:
    labels = [label(o) for o in outcomes_]
    errs = [error(o[0], r) for o, r, lab in zip(outcomes_, refs, labels) if lab == "value"]
    flagged = labels.count("flagged")
    raised = len(labels) - len(errs) - flagged
    line = f"  {name:13s} values {len(errs):4d}  flagged {flagged:3d}  raised {raised:3d}"
    if errs:
        ordered = sorted(errs)
        p99 = ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]
        line += (f"  ulps: median {statistics.median(ordered):.4g}  p99 {p99:.4g}  "
                 f"max {ordered[-1]:.4g}")
    print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", help="one or two src directories")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("at most two trees")
    packages = [load_tree(src, f"wcs_{i}") for i, src in enumerate(args.trees)]
    groups = {
        "readme": readme_rows(packages[-1]),
        "cold-sweep": cold_sweep_rows(),
        "wavefunction": wavefunction_rows(),
    }
    results = {}
    for name, rows in groups.items():
        outs = [outcomes(package, rows) for package in packages]
        wanted = [any(label(o) == "value" for o in sample) for sample in zip(*outs)]
        results[name] = outs, references(rows, wanted), rows
    for i, src in enumerate(args.trees):
        print(f"tree {src}")
        for name, (outs, refs, _) in results.items():
            ledger(name, outs[i], refs)
    if len(packages) == 1:
        return 0
    print(f"{args.trees[1]} against {args.trees[0]}")
    for name, (outs, refs, rows) in results.items():
        closer = farther = equal = 0
        for a, b, r in zip(*outs, refs):
            if label(a) != "value" or label(b) != "value":
                continue
            ea, eb = abs(mpmath.mpf(a[0]) - r), abs(mpmath.mpf(b[0]) - r)
            closer += eb < ea
            farther += eb > ea
            equal += eb == ea
        print(f"  {name:13s} closer {closer}  farther {farther}  equal {equal}")
        samples = [(triple, scales, k, x) for triple, scales, points, *_ in rows
                   for k, x in points]
        for (triple, scales, k, x), a, b in zip(samples, *outs):
            if label(a) != label(b):
                print(f"    class moved: {triple} scales {scales} k {k} x {x!r}: "
                      f"{label(a)} -> {label(b)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
