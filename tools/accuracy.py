"""Error ledger of the factorial tables, the wavefunction samples and the
Mandel parameters of one or two `wcs` trees against mpmath.

    python tools/accuracy.py src
    python tools/accuracy.py OTHER/src src

Each tree is imported as tools/ab.py imports it, as its own package.  The
ledger is eight groups, each one `Group` entry: the parts it measures, its
samples, the call that reads a sample on a tree (the parts' values, or the
type of the error raised), a batched mpmath reference and an error per
part.  A sample is a key, its triple first.  One routine summarizes a group
on a tree and one compares two trees on it.

For each tree and group it prints the samples returned as values, flagged
(a wavefunction returned with the cancellation flag) and raised, then per
part the median, p99 and largest error over the values, with the sample
where the largest is.  With two trees it then prints, per group and part,
on how many samples that both return as values the second tree is closer
to the reference, farther and equal, each sample that moved where at most
MAX_LISTED did, and each sample whose class (value, flagged or the error
type raised) differs between the trees.

The wavefunction groups (part psi) are the wavefunction samples of
tools/fingerprint.py's groups, from tools/groups.py:

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
and |value - ref| / (1 + m1) for Q_z, m1 the reference's mean number.

The table groups are log [n] (log_box) and log [n]! (log_gen_factorial):

tables        the tables group of tools/fingerprint.py: n = 0..k0+2, at
              most to 4100, on its five triples, then the last entry of
              the table those reads left and the one past it, read in the
              fingerprint's order on each tree
edges         the domain's edges: alpha in {0, 0.3, 1/2, 1 - 1e-6, 1},
              beta in {1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05}, nu with
              1 - alpha + nu = 1e-12, 1e-3, 1 and 2 (nu formed as
              alpha - 1 + that in doubles), at n = 1, 2, 10 and 100;
              also the largest absolute error of log [n]! per
              (beta, alpha) cell, over nu and n
past-k0       n = k0..3000 on eight triples, the entries the closed
              form gives, which the other two groups barely reach; also
              the median, p99 and largest error of log [n]! per triple

The reference is a 50-digit mpmath running sum of log [k], k = 1..n, each
from four log-gammas at the same double inputs (beta k formed in mpmath).
The error is |value - ref| in ulps of max(|ref|, 1) as a double.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import statistics
import sys
from typing import Callable, NamedTuple

import mpmath
from ab import load_tree
from groups import (PHOTON_TRIPLES, PHOTON_XS, TABLE_END, TABLE_TRIPLES, cold_sweep_rows,
                    readme_commands, wavefunction_rows)

DIGITS = 60  # the reference's correct digits
MANDEL_DIGITS = 50  # the Mandel reference's working digits
MANDEL_RUN = 8  # terms in a row below 10^-MANDEL_DIGITS of each sum that stop it
TABLE_DIGITS = 50  # the table reference's working digits
MAX_LISTED = 20  # a comparison lists a part's moved samples where at most this many moved
RAISED = ("ParameterError", "NumericalRangeError", "ConvergenceError")  # recorded, not raised

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


class Group(NamedTuple):
    """One ledger group.  An outcome, a sample read on a tree, is a tuple
    holding the parts' values first (any context after them), "flagged",
    or the name of the typed error raised."""

    name: str
    parts: tuple[str, ...]
    fields: tuple[str, ...]  # the names of a key's entries after its triple
    samples: Callable  # package -> keys, each drawn after the last one is read
    call: Callable  # (package, key) -> outcome
    references: Callable  # {key: an outcome with values} -> {key: reference}
    errors: Callable  # (outcome with values, reference) -> one error per part
    unit: str = "ulps"
    extra: Callable | None = None  # (group, outcomes, references) -> lines after the summary


class Summary(NamedTuple):
    values: int
    flagged: int
    raised: int
    parts: list  # per part (median, p99, max, key at the max), or None without values


class Comparison(NamedTuple):
    parts: list  # per part (closer, farther, equal, [(key, error a, error b)] that moved)
    moves: list  # (key, class a, class b) where the classes differ


def label(outcome) -> str:
    return outcome if isinstance(outcome, str) else "value"


def outcomes(group: Group, package) -> dict:
    """{key: outcome} of the group on the tree, read in sample order."""
    raised = tuple(getattr(package.errors, name) for name in RAISED)
    out = {}
    for key in group.samples(package):
        try:
            out[key] = group.call(package, key)
        except raised as exc:
            out[key] = type(exc).__name__
    return out


def wanted(outs: list[dict]) -> dict:
    """{key: the first tree's outcome with values} where some tree has one."""
    first = {}
    for out in outs:
        for key, outcome in out.items():
            if label(outcome) == "value":
                first.setdefault(key, outcome)
    return first


def part_errors(group: Group, outs: dict, refs: dict) -> dict:
    """{key: the parts' errors} over the samples returned as values."""
    return {key: group.errors(o, refs[key]) for key, o in outs.items() if label(o) == "value"}


def spread(errs) -> tuple[float, float, float]:
    """The median, nearest-rank 99th percentile and largest of errs."""
    ordered = sorted(errs)
    return statistics.median(ordered), ordered[math.ceil(0.99 * len(ordered)) - 1], ordered[-1]


def summarize(group: Group, outs: dict, refs: dict) -> Summary:
    errs = part_errors(group, outs, refs)
    flagged = sum(o == "flagged" for o in outs.values())
    parts = []
    for i in range(len(group.parts)):
        top = max(errs, key=lambda key: errs[key][i], default=None)
        parts.append(None if top is None else (*spread(e[i] for e in errs.values()), top))
    return Summary(len(errs), flagged, len(outs) - len(errs) - flagged, parts)


def compare(group: Group, outs_a: dict, outs_b: dict, refs: dict) -> Comparison:
    """The second tree against the first, on the samples both read."""
    errs_a, errs_b = part_errors(group, outs_a, refs), part_errors(group, outs_b, refs)
    both = [key for key in errs_b if key in errs_a]
    parts = []
    for i in range(len(group.parts)):
        pairs = [(key, errs_a[key][i], errs_b[key][i]) for key in both]
        closer = sum(eb < ea for _, ea, eb in pairs)
        farther = sum(eb > ea for _, ea, eb in pairs)
        parts.append((closer, farther, len(pairs) - closer - farther,
                      [pair for pair in pairs if pair[1] != pair[2]]))
    moves = [(key, label(outs_a[key]), label(o)) for key, o in outs_b.items()
             if key in outs_a and label(outs_a[key]) != label(o)]
    return Comparison(parts, moves)


def describe(group: Group, key) -> str:
    return " ".join([repr(key[0])] + [f"{f} {v!r}" for f, v in zip(group.fields, key[1:])])


def print_summary(group: Group, outs: dict, refs: dict) -> None:
    s = summarize(group, outs, refs)
    print(f"  {group.name:13s} values {s.values:5d}  flagged {s.flagged:3d}  raised {s.raised:3d}")
    for part, stats in zip(group.parts, s.parts):
        if stats:
            median, p99, top, key = stats
            print(f"    {part}: {group.unit} median {median:.4g}  p99 {p99:.4g}  max {top:.4g} "
                  f"at {describe(group, key)}")
    for line in group.extra(group, outs, refs) if group.extra else ():
        print(f"    {line}")


def print_comparison(group: Group, outs_a: dict, outs_b: dict, refs: dict) -> None:
    c = compare(group, outs_a, outs_b, refs)
    for part, (closer, farther, equal, moved) in zip(group.parts, c.parts):
        print(f"  {group.name:13s} {part} closer {closer}  farther {farther}  equal {equal}")
        for key, ea, eb in moved if len(moved) <= MAX_LISTED else ():
            print(f"    {describe(group, key)}: {'closer' if eb < ea else 'farther'} "
                  f"({ea:.3g} -> {eb:.3g})")
    for key, a, b in c.moves:
        print(f"    class moved: {describe(group, key)}: {a} -> {b}")


def readme_command(package, command: str):
    """The tree's CLI module and the README's `wcs command` line parsed by it."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    (argv,) = [args for args in readme_commands() if args[0] == command]
    return cli, cli.build_parser().parse_args(argv)


def wave_keys(rows) -> list:
    return [(triple, scales, k, x) for triple, scales, points in rows for k, x in points]


def wave_call(package, key):
    triple, scales, k, x = key
    value, flag = package.wavefunction_sample(k, x, package.DeformationParams(*triple),
                                              package.PhysicalScales(*(scales or ())))
    return "flagged" if flag else (value,)


def wave_references(samples: dict) -> dict:
    """One Oracle per (triple, scales)."""
    oracles, out = {}, {}
    for triple, scales, k, x in samples:
        if (triple, scales) not in oracles:
            oracles[triple, scales] = Oracle(triple, scales)
        out[triple, scales, k, x] = oracles[triple, scales].value(k, x)
    return out


def mandel_call(package, key, tol=None):
    """(Q_M, Q_z, the label's x); Q_z at tol where given."""
    triple, x = key
    p = package.DeformationParams(*triple)
    lab = package.CoherentLabel.from_intensity(x)
    kwargs = {} if tol is None else {"tol": tol}
    return package.mandel_qm(lab, p), package.mandel_qz(lab, p, **kwargs), lab.x


def mandel_errors(outcome, ref) -> tuple[float, float]:
    qm, qz, x = outcome
    ref_qm, ref_qz, m1 = ref
    return (float(abs(mpmath.mpf(qm) - ref_qm) / (1 + x)),
            float(abs(mpmath.mpf(qz) - ref_qz) / (1 + m1)))


def table_call(package, key):
    triple, n = key
    p = package.DeformationParams(*triple)
    return package.log_box(n, p), package.log_gen_factorial(n, p)


def first_series_entry(package, triple) -> int:
    return package.factorials._first_series_entry(package.DeformationParams(*triple))


def table_samples(package):
    """Each triple's n = 0..k0+2, then the last entry of the table those
    reads left and the one past it."""
    for triple in TABLE_TRIPLES:
        end = min(first_series_entry(package, triple) + 2, TABLE_END)
        yield from ((triple, n) for n in range(end + 1))
        last = len(package.factorials._TABLES[package.DeformationParams(*triple)].log_box) - 1
        yield from ((triple, last), (triple, last + 1))


def edge_samples(package) -> list:
    return [((a, b, a - 1.0 + gap), n) for a in EDGE_ALPHAS for b in EDGE_BETAS
            for gap in EDGE_GAPS for n in EDGE_NS]


def past_k0_samples(package):
    for triple in PAST_K0_TRIPLES:
        yield from ((triple, n) for n in range(first_series_entry(package, triple),
                                               PAST_K0_END + 1))


def edge_cells(group: Group, outs: dict, refs: dict) -> list[str]:
    """The largest |error| of log [n]! per (beta, alpha) cell of the edges."""
    lines = ["largest |error| of log [n]!, beta down, alpha across",
             "".join(f"{a:>10.6g}" for a in EDGE_ALPHAS)]
    for b in EDGE_BETAS:
        cells = []
        for a in EDGE_ALPHAS:
            errs = [abs(mpmath.mpf(o[1]) - refs[key][1]) for key, o in outs.items()
                    if key[0][:2] == (a, b) and label(o) == "value"]
            cells.append(f"{float(max(errs)):10.2g}" if errs else f"{'raised':>10s}")
        lines.append(f"{b:<7.0e}" + "".join(cells))
    return lines


def triple_spreads(group: Group, outs: dict, refs: dict) -> list[str]:
    """The median, p99 and largest error of log [n]! per triple."""
    lines = []
    for triple in PAST_K0_TRIPLES:
        stats = summarize(group, {key: o for key, o in outs.items() if key[0] == triple},
                          refs).parts[1]
        lines.append(f"{triple}: raised" if stats is None else
                     f"{triple}: ulps median {stats[0]:.4g}  p99 {stats[1]:.4g}  max {stats[2]:.4g}")
    return lines


def ledger_groups(package) -> list[Group]:
    """The eight groups, README commands parsed by the package's CLI."""
    cli, wave = readme_command(package, "wavefunction")
    readme = [((wave.alpha, wave.beta, wave.nu), (wave.hbar, wave.mass, wave.omega), k, x)
              for k in cli._parse_int_range(wave.k) for x in cli._parse_grid(wave.x)]
    cli, mandel = readme_command(package, "mandel")
    mandel_readme = [((mandel.alpha, mandel.beta, mandel.nu), x) for x in cli._parse_grid(mandel.x)]
    psi = dict(parts=("psi",), fields=("scales", "k", "x"), call=wave_call,
               references=wave_references, errors=lambda o, ref: (error(o[0], ref),))
    qs = dict(parts=("Q_M", "Q_z"), fields=("x",), unit="scaled", errors=mandel_errors,
              references=lambda samples: {key: mandel_reference(key[0], o[2])
                                          for key, o in samples.items()})
    logs = dict(parts=("log [n]", "log [n]!"), fields=("n",), call=table_call,
                references=table_references,
                errors=lambda o, ref: (table_error(o[0], ref[0]), table_error(o[1], ref[1])))
    return [
        Group("readme", samples=lambda _: readme, **psi),
        Group("cold-sweep", samples=lambda _: wave_keys(cold_sweep_rows()), **psi),
        Group("wavefunction", samples=lambda _: wave_keys(wavefunction_rows()), **psi),
        Group("mandel-readme", samples=lambda _: mandel_readme,
              call=functools.partial(mandel_call, tol=mandel.tol), **qs),
        Group("mandel", samples=lambda _: [(t, x) for t in PHOTON_TRIPLES for x in PHOTON_XS],
              call=mandel_call, **qs),
        Group("tables", samples=table_samples, **logs),
        Group("edges", samples=edge_samples, extra=edge_cells, **logs),
        Group("past-k0", samples=past_k0_samples, extra=triple_spreads, **logs),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", help="one or two src directories")
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("at most two trees")
    packages = [load_tree(src, f"wcs_{i}") for i, src in enumerate(args.trees)]
    groups = ledger_groups(packages[-1])
    # each group is read on every tree before the next, so each tree's
    # tables hold what its earlier groups left
    outs = [[outcomes(group, package) for package in packages] for group in groups]
    refs = [group.references(wanted(out)) for group, out in zip(groups, outs)]
    for i, src in enumerate(args.trees):
        print(f"tree {src}")
        for group, out, ref in zip(groups, outs, refs):
            print_summary(group, out[i], ref)
    if len(packages) == 2:
        print(f"{args.trees[1]} against {args.trees[0]}")
        for group, out, ref in zip(groups, outs, refs):
            print_comparison(group, *out, ref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
