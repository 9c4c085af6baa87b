"""Error ledger of the factorial tables, the wavefunction samples and the
Mandel parameters of one or two `wcs` trees against mpmath.

    python tools/accuracy.py src
    python tools/accuracy.py OTHER/src src

Each tree is imported as tools/ab.py imports it, as its own package.  The
wavefunction groups are the wavefunction samples of tools/fingerprint.py's
groups, from tools/groups.py:

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

The Mandel groups are Q_M (mandel_qm) and Q_z (mandel_qz):

mandel-readme  `wcs mandel` as README.md runs it, parsed by the tree's own
               CLI parser (the last tree's, where there are two): Q_z at
               its --tol, Q_M at the library's default
mandel         the photon-statistics grid of tools/fingerprint.py, its four
               triples at x = 0.1, 1, 7.5 and 40, at library defaults

The reference is a 50-digit mpmath Fock sum at the intensity the label
carries, |sqrt(x)|^2, from the exact double inputs: the weights x^n / [n]!
with brackets from mpmath's log-gamma (beta n formed in mpmath), the sums
of w_n, n w_n, n (n-1) w_n, [n] w_n and [n]^2 w_n run until 8 terms in a
row of each are below 10^-50 of its sum.  The error is scaled as the
photon-stats benchmark's check scales it: |value - ref| / (1 + x) for Q_M
and |value - ref| / (1 + m1) for Q_z, m1 the reference's mean number.  For
each tree and group it prints the samples raised and the median, p99 and
largest error of each parameter, with the sample where the largest is.
With two trees it prints, per group and parameter, on how many samples
that both return the second tree is closer to the reference, farther and
equal, and each sample where it is closer or farther.

The table groups are log [n] (log_box) and log [n]! (log_gen_factorial):

tables        the tables group of tools/fingerprint.py: n = 0..k0+2, at
              most to 4100, on its five triples, then the last entry of
              the table those reads left and the one past it, read in the
              fingerprint's order on each tree
edges         the domain's edges: alpha in {0, 0.3, 1/2, 1 - 1e-6, 1},
              beta in {1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05}, nu with
              1 - alpha + nu = 1e-12, 1e-3, 1 and 2 (nu formed as
              alpha - 1 + that in doubles), at n = 1, 2, 10 and 100
past-k0       n = k0..3000 on eight triples, the entries the closed
              form gives, which the other two groups barely reach

The reference is a 50-digit mpmath running sum of log [k], k = 1..n, each
from four log-gammas at the same double inputs (beta k formed in mpmath).
The error is |value - ref| in ulps of max(|ref|, 1) as a double.  For
each tree and group it prints the samples raised and the median, p99 and
largest error of each, with the sample where the largest is; for edges
also the largest absolute error of log [n]! per (beta, alpha) cell, over
nu and n, and for past-k0 the median, p99 and largest error of log [n]!
per triple.  With two trees it prints, per group and function, on how many
samples that both return the second tree is closer, farther and equal.
"""

from __future__ import annotations

import argparse
import importlib
import math
import statistics
import sys

import mpmath
from ab import load_tree
from groups import (PHOTON_TRIPLES, PHOTON_XS, TABLE_END, TABLE_TRIPLES, cold_sweep_rows,
                    readme_commands, wavefunction_rows)

DIGITS = 60  # the reference's correct digits
MANDEL_DIGITS = 50  # the Mandel reference's working digits
MANDEL_RUN = 8  # terms in a row below 10^-MANDEL_DIGITS of each sum that stop it
TABLE_DIGITS = 50  # the table reference's working digits

# the edges group: alpha, beta, 1 - alpha + nu and n
EDGE_ALPHAS = (0.0, 0.3, 0.5, 1.0 - 1e-6, 1.0)
EDGE_BETAS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05)
EDGE_GAPS = (1e-12, 1e-3, 1.0, 2.0)
EDGE_NS = (1, 2, 10, 100)

# the past-k0 group: its triples, each read from its k0 to PAST_K0_END
PAST_K0_TRIPLES = ((0.5, 0.5, 0.25), (0.3, 0.7, 0.2), (1.0, 0.3, 0.2), (1.0, 0.1, 0.5),
                   (0.9, 0.05, 0.0), (0.5, 0.5, -0.3), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0))
PAST_K0_END = 3000


def log_bracket(a, b, v, i: int):
    """log [i] at mpf (alpha, beta, nu), at the working precision."""
    lg = mpmath.loggamma
    return lg(b * i + 1) - lg(b * i + 1 - a) + lg(b * i + 1 - a + v) - lg(b * (i - 1) + 1 - a + v)


def bracket(a, b, v, i: int):
    """[i] at mpf (alpha, beta, nu), at the working precision."""
    return mpmath.exp(log_bracket(a, b, v, i))


class Oracle:
    """The reference of one triple and scales, rows raised at a working
    precision and grown as the samples need them."""

    def __init__(self, triple, scales):
        self.triple = triple
        self.scales = scales or (1.0, 1.0, 1.0)
        self.rows = {}  # dps -> (brackets, raised rows), each a list of mpf

    def _brackets(self, n: int) -> list:
        a, b, v = (mpmath.mpf(t) for t in self.triple)
        return [mpmath.mpf(0)] + [bracket(a, b, v, i) for i in range(1, n + 1)]

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


def mandel_reference(triple, x: float) -> tuple:
    """(Q_M, Q_z, m1) at the triple and x from the Fock sum, as mpf."""
    with mpmath.workdps(MANDEL_DIGITS):
        a, b, v = (mpmath.mpf(t) for t in triple)
        mx, eps = mpmath.mpf(x), mpmath.mpf(10) ** -MANDEL_DIGITS
        w = mpmath.mpf(1)  # x^n / [n]!
        sums = [w, 0, 0, 0, 0]  # w, n w, n (n-1) w, [n] w, [n]^2 w
        n = run = 0
        while run < MANDEL_RUN:
            n += 1
            box = bracket(a, b, v, n)
            w = w * mx / box
            terms = (w, n * w, n * (n - 1) * w, box * w, box * box * w)
            sums = [s + t for s, t in zip(sums, terms)]
            run = run + 1 if all(t <= eps * s for t, s in zip(terms, sums)) else 0
        n0, m1, m2, e1, e2 = sums
        m1, m2, e1, e2 = m1 / n0, m2 / n0, e1 / n0, e2 / n0
        return (e2 - e1 * e1) / e1 - 1, (m2 - m1 * m1) / m1, m1


def mandel_rows(package, readme: bool) -> list[tuple]:
    """(triple, x, Q_z's tol or None) per sample: the README's `wcs mandel`
    command parsed by the package's CLI, or the photon-statistics grid."""
    if not readme:
        return [(triple, x, None) for triple in PHOTON_TRIPLES for x in PHOTON_XS]
    cli = importlib.import_module(f"{package.__name__}.cli")
    (argv,) = [args for args in readme_commands() if args[0] == "mandel"]
    args = cli.build_parser().parse_args(argv)
    return [((args.alpha, args.beta, args.nu), x, args.tol) for x in cli._parse_grid(args.x)]


def mandel_outcomes(package, rows) -> list:
    """(label x, Q_M, Q_z) per sample, or the error type's name."""
    out = []
    for triple, x, tol in rows:
        p = package.DeformationParams(*triple)
        label = package.CoherentLabel.from_intensity(x)
        kwargs = {} if tol is None else {"tol": tol}
        try:
            out.append((label.x, package.mandel_qm(label, p), package.mandel_qz(label, p, **kwargs)))
        except (package.errors.NumericalRangeError, package.errors.ConvergenceError) as exc:
            out.append(type(exc).__name__)
    return out


def mandel_errors(outcome, ref) -> tuple[float, float] | None:
    """The scaled errors of Q_M and Q_z, or None for a raised sample."""
    if isinstance(outcome, str):
        return None
    x, qm, qz = outcome
    ref_qm, ref_qz, m1 = ref
    return (float(abs(mpmath.mpf(qm) - ref_qm) / (1 + x)),
            float(abs(mpmath.mpf(qz) - ref_qz) / (1 + m1)))


def mandel_ledger(name: str, rows, errs) -> None:
    kept = [(row, e) for row, e in zip(rows, errs) if e is not None]
    line = f"  {name:13s} values {len(kept):4d}  raised {len(rows) - len(kept):3d}"
    for i, what in enumerate(("Q_M", "Q_z")):
        ordered = sorted(e[i] for _, e in kept)
        if not ordered:
            continue
        p99 = ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]
        (triple, x, _), _ = max(kept, key=lambda k: k[1][i])
        line += (f"\n    {what}: median {statistics.median(ordered):.3g}  p99 {p99:.3g}  "
                 f"max {ordered[-1]:.3g} at {triple} x {x!r}")
    print(line)


def table_outcomes(package, group: str) -> dict:
    """{(triple, n): (log [n], log [n]!)} of the group, or the error type's
    name where the triple or a read raises, read in the group's order."""
    out = {}
    if group == "past-k0":
        for triple in PAST_K0_TRIPLES:
            k0 = package.factorials._first_series_entry(package.DeformationParams(*triple))
            for n in range(k0, PAST_K0_END + 1):
                out[triple, n] = table_read(package, triple, n)
        return out
    if group == "edges":
        for a in EDGE_ALPHAS:
            for b in EDGE_BETAS:
                for gap in EDGE_GAPS:
                    triple = (a, b, a - 1.0 + gap)
                    for n in EDGE_NS:
                        out[triple, n] = table_read(package, triple, n)
        return out
    for triple in TABLE_TRIPLES:
        p = package.DeformationParams(*triple)
        end = min(package.factorials._first_series_entry(p) + 2, TABLE_END)
        for n in range(end + 1):
            out[triple, n] = table_read(package, triple, n)
        last = len(package.factorials._TABLES[p].log_box) - 1
        for n in (last, last + 1):
            out[triple, n] = table_read(package, triple, n)
    return out


def table_read(package, triple, n: int):
    try:
        p = package.DeformationParams(*triple)
        return package.log_box(n, p), package.log_gen_factorial(n, p)
    except (package.errors.ParameterError, package.errors.NumericalRangeError) as exc:
        return type(exc).__name__


def table_references(samples) -> dict:
    """{(triple, n): (log [n], log [n]!)} as mpf, from one running sum per
    triple up to its largest n."""
    top: dict = {}
    for triple, n in samples:
        top[triple] = max(top.get(triple, 0), n)
    out = {}
    with mpmath.workdps(TABLE_DIGITS):
        for triple, n_max in top.items():
            a, b, v = (mpmath.mpf(t) for t in triple)
            log_fact, rows = mpmath.mpf(0), [(-mpmath.inf, mpmath.mpf(0))]
            for i in range(1, n_max + 1):
                lb = log_bracket(a, b, v, i)
                log_fact += lb
                rows.append((lb, log_fact))
            out.update({(t, n): rows[n] for t, n in samples if t == triple})
    return out


def table_error(value: float, ref) -> float:
    """|value - ref| in ulps of max(|ref|, 1) as a double; 0 where both are
    -inf (log [0])."""
    if ref == -mpmath.inf:
        return 0.0 if value == -math.inf else math.inf
    return float(abs(mpmath.mpf(value) - ref) / math.ulp(max(abs(float(ref)), 1.0)))


def table_ledger(name: str, outs: dict, refs: dict) -> None:
    kept = {key: o for key, o in outs.items() if not isinstance(o, str)}
    line = f"  {name:13s} values {len(kept):4d}  raised {len(outs) - len(kept):3d}"
    for i, what in enumerate(("log [n]", "log [n]!")):
        errs = sorted((table_error(o[i], refs[key][i]), key) for key, o in kept.items())
        if not errs:
            continue
        ordered = [e for e, _ in errs]
        p99 = ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]
        (triple, n) = errs[-1][1]
        line += (f"\n    {what}: ulps median {statistics.median(ordered):.3g}  p99 {p99:.3g}  "
                 f"max {ordered[-1]:.3g} at {triple} n {n}")
    print(line)


def edge_cells(outs: dict, refs: dict) -> None:
    """The largest |error| of log [n]! per (beta, alpha) cell of the edges."""
    print("    largest |error| of log [n]!, beta down, alpha across")
    print("    " + "".join(f"{a:>10.6g}" for a in EDGE_ALPHAS))
    for b in EDGE_BETAS:
        cells = []
        for a in EDGE_ALPHAS:
            errs = [abs(mpmath.mpf(o[1]) - refs[key][1]) for key, o in outs.items()
                    if key[0][:2] == (a, b) and not isinstance(o, str)]
            cells.append(f"{float(max(errs)):10.2g}" if errs else f"{'raised':>10s}")
        print(f"    {b:<7.0e}" + "".join(cells))


def triple_stats(outs: dict, refs: dict) -> None:
    """The median, p99 and largest error of log [n]! per triple, in ulps."""
    for triple in PAST_K0_TRIPLES:
        ordered = sorted(table_error(o[1], refs[key][1]) for key, o in outs.items()
                         if key[0] == triple and not isinstance(o, str))
        if not ordered:
            print(f"    {triple}: raised")
            continue
        p99 = ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)]
        print(f"    {triple}: ulps median {statistics.median(ordered):.4g}  p99 {p99:.4g}  "
              f"max {ordered[-1]:.4g}")


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
    mandel = {}
    for name, readme in (("mandel-readme", True), ("mandel", False)):
        rows = mandel_rows(packages[-1], readme)
        outs = [mandel_outcomes(package, rows) for package in packages]
        # every tree's label carries the same x, |sqrt(x)|^2
        xs = [next((o[0] for o in sample if not isinstance(o, str)), None)
              for sample in zip(*outs)]
        refs = [None if x is None else mandel_reference(triple, x)
                for (triple, _, _), x in zip(rows, xs)]
        mandel[name] = rows, [[mandel_errors(o, r) for o, r in zip(out, refs)] for out in outs]
    tables = {}
    for name in ("tables", "edges", "past-k0"):
        outs = [table_outcomes(package, name) for package in packages]
        samples = {key for out in outs for key, o in out.items() if not isinstance(o, str)}
        tables[name] = outs, table_references(samples)
    for i, src in enumerate(args.trees):
        print(f"tree {src}")
        for name, (outs, refs, _) in results.items():
            ledger(name, outs[i], refs)
        for name, (rows, errs) in mandel.items():
            mandel_ledger(name, rows, errs[i])
        for name, (outs, refs) in tables.items():
            table_ledger(name, outs[i], refs)
            if name == "edges":
                edge_cells(outs[i], refs)
            if name == "past-k0":
                triple_stats(outs[i], refs)
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
    for name, (rows, (errs_a, errs_b)) in mandel.items():
        for i, what in enumerate(("Q_M", "Q_z")):
            pairs = [(row, ea[i], eb[i]) for row, ea, eb in zip(rows, errs_a, errs_b)
                     if ea is not None and eb is not None]
            closer = sum(eb < ea for _, ea, eb in pairs)
            farther = sum(eb > ea for _, ea, eb in pairs)
            print(f"  {name:13s} {what} closer {closer}  farther {farther}  "
                  f"equal {len(pairs) - closer - farther}")
            for (triple, x, _), ea, eb in pairs:
                if ea != eb:
                    print(f"    {triple} x {x!r}: {'closer' if eb < ea else 'farther'} "
                          f"({ea:.3g} -> {eb:.3g})")
    for name, ((outs_a, outs_b), refs) in tables.items():
        both = [key for key in outs_b
                if not isinstance(outs_a.get(key, ""), str) and not isinstance(outs_b[key], str)]
        for i, what in enumerate(("log [n]", "log [n]!")):
            errs = [(table_error(outs_a[key][i], refs[key][i]),
                     table_error(outs_b[key][i], refs[key][i])) for key in both]
            closer = sum(eb < ea for ea, eb in errs)
            farther = sum(eb > ea for ea, eb in errs)
            print(f"  {name:13s} {what} closer {closer}  farther {farther}  "
                  f"equal {len(errs) - closer - farther}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
