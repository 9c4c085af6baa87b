"""The four workloads: seeded inputs, one op at a time, and each op's check.

Every workload yields its ops in rounds.  A round is a stratified sample of
the workload's input space: each parameter range is cut into as many
strata as the round has ops, the seed places one draw inside each stratum,
and the seed shuffles the order of the ops.  Which strata of different
parameters share an op comes from a fixed design, not from the seed, so
every seed sees the same combinations of cheap and costly settings.  That,
and a loop that never stops inside a round, is what makes a closed-loop
run's figures repeat from seed to seed.

`run(op)` makes the op's library calls and returns their outputs; only it
is timed.  Typed wcs errors propagate to the caller, which counts them.
`check(op, out)`, run after the round and outside the timing, returns the
op's relative error against a reference that does not share the code path
under test, and raises `CheckFailed` when a check fails.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys

import references as ref


class CheckFailed(Exception):
    """An op returned a number that disagrees with its reference."""


def _strata(design: random.Random, rng: random.Random, k: int) -> list[float]:
    """k numbers in [0, 1), one inside each equal stratum; the design
    orders the strata and the seeded rng places each draw in the middle
    half of its stratum, where a draw's cost varies least from seed to seed."""
    cells = list(range(k))
    design.shuffle(cells)
    return [(c + 0.25 + 0.5 * rng.random()) / k for c in cells]


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


class Workload:
    name = ""
    # nominal seconds per round, measured untraced on the machine described
    # in README.md.  A run measures round(seconds / nominal) whole rounds:
    # about --seconds there, and the same ops and work counters on any
    # machine for a given seed and --seconds, traced or not
    round_seconds = 1.0
    traced = False  # set by the runner for the traced run
    # what a set-up probe runs in a fresh interpreter: None for run.py's own
    # --probe (import, build inputs, warm up), or a -c program
    probe_code = None

    def __init__(self, seed: int, root: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.design = random.Random(f"{self.name}:design")
        self.root = root

    def setup(self) -> None:
        """Import the package, build inputs that are reused, warm up."""

    def next_round(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> float:
        raise NotImplementedError


# --------------------------------------------------------------- moments


class MomentClosure(Workload):
    """verify_moments over the three weight families, n_max 4..8."""

    name = "moment-closure"
    round_seconds = 23.0
    families = ("wright", "one-minus-beta", "ml-closed-form")
    per_family = 15
    # The (beta, nu) ranges below are the part of each family's domain where
    # one op takes up to about 2.5 s on the reference machine.  Wright with
    # nu/beta < 1.5 or beta > 0.7, and one-minus-beta with nu near -beta or
    # 0, take up to 22 s per op there (one-minus-beta at (0.9, -0.8) ends in
    # ConvergenceError after 9 s): longer than a run can repeat.
    threshold = 1e-5  # the CLI's default --threshold

    def setup(self) -> None:
        import wcs

        self.wcs = wcs
        # each family runs n_max through 4..8 in turn, so any five
        # consecutive ops of a family cover every order once
        self.nmax = {f: itertools.cycle(range(4, 9)) for f in self.families}
        wcs.verify_moments("ml-closed-form", 1.0, 0.5, 4)

    def next_round(self) -> list:
        k = self.per_family
        ops = []
        for family in self.families:
            ub, uv = _strata(self.design, self.rng, k), _strata(self.design, self.rng, k)
            for i in range(k):
                if family == "wright":
                    beta = _lerp(0.2, 0.7, ub[i])
                    nu = beta * _lerp(1.5, 5.0, uv[i])
                elif family == "one-minus-beta":
                    beta = _lerp(0.3, 0.7, ub[i])
                    # nu in [-beta/2, -0.1] or [0.1, 0.9], away from the
                    # Gamma(-nu) pole at 0.  The first third of the strata
                    # go to the negative side, where an op costs about twice
                    # as much, so that no stratum straddles the two sides
                    u = uv[i]
                    if u < 1.0 / 3.0:
                        nu = -0.1 - 3.0 * u * (0.5 * beta - 0.1)
                    else:
                        nu = 0.1 + 0.8 * 1.5 * (u - 1.0 / 3.0)
                else:
                    beta = 1.0
                    nu = _lerp(-0.5, 3.0, uv[i])
                ops.append((family, beta, nu, next(self.nmax[family])))
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        family, beta, nu, n_max = op
        return self.wcs.verify_moments(family, beta, nu, n_max)

    def check(self, op, rep) -> float:
        family, beta, nu, n_max = op
        alpha = {"wright": 1.0, "one-minus-beta": 1.0 - beta, "ml-closed-form": 0.0}[family]
        err = max(
            ref.rel_err(m, math.exp(ref.log_factorial(n, alpha, beta, nu)))
            for n, m in zip(rep.orders, rep.quadrature_moments)
        )
        if max(rep.rel_errors) > self.threshold or err > self.threshold:
            raise CheckFailed(f"{op}: moment error {max(rep.rel_errors):.3g} / {err:.3g}")
        return err


# ------------------------------------------------------- photon statistics


class PhotonStats(Workload):
    """Photon statistics of a fixed pool of triples at x in [0.1, 100]."""

    name = "photon-stats"
    round_seconds = 2.7
    # classical, Mittag-Leffler, alpha = 1, alpha = 0 with beta = 1/2,
    # mixed alpha, and small beta (0, 0.3, 0.5), whose series exhaust their
    # term budgets at large x and raise ConvergenceError
    triples = (
        (0.0, 1.0, 0.0),
        (0.0, 1.0, 0.5),
        (1.0, 1.0, 0.5),
        (1.0, 0.5, 1.0),
        (0.0, 0.5, 0.0),
        (0.5, 0.7, 0.2),
        (0.3, 0.9, 1.5),
        (0.0, 0.3, 0.5),
    )
    x_strata = 48
    rtol = 1e-8
    # the largest index any op's term budget can reach (photon_distribution
    # and fock_moment_sum stop at 10^5 terms and look one bracket ahead)
    table_reach = 100_002

    def setup(self) -> None:
        import wcs

        self.wcs = wcs
        self.params = [wcs.DeformationParams(*t) for t in self.triples]
        for p in self.params:
            # x = 100 reaches furthest into a table whose series converge;
            # a triple whose budget runs out there gets the longest table
            try:
                self._ops(100.0, p)
            except (wcs.ConvergenceError, wcs.NumericalRangeError):
                wcs.log_box(self.table_reach, p)

    def next_round(self) -> list:
        ops = []
        for i in range(len(self.triples)):
            for u in _strata(self.design, self.rng, self.x_strata):
                ops.append((i, 0.1 * 1000.0**u))
        self.rng.shuffle(ops)
        return ops

    def _ops(self, x: float, p):
        wcs = self.wcs
        label = wcs.CoherentLabel.from_intensity(x)
        return (
            wcs.log_n_function(x, p),
            wcs.photon_distribution(label, p).probabilities,
            wcs.mandel_qz(label, p),
            wcs.mandel_qm(label, p),
            [wcs.normally_ordered_moment(r, label, p) for r in (1, 2)],
            [wcs.fock_moment_sum(r, label, p) for r in (1, 2)],
        )

    def run(self, op):
        i, x = op
        return self._ops(x, self.params[i])

    def check(self, op, out) -> float:
        i, x = op
        log_n, probs, qz, qm, moments, fock = out
        want = ref.photon_stats(x, *self.triples[i])
        p_ref = want["p"]
        m1 = want["moments"][0]
        # Both paths build log p(n) as a running sum over n brackets, so its
        # rounding grows with the cutoff: the probabilities are held to rtol
        # per thousand terms, as a share of the most likely one.  The Mandel
        # parameters cancel to O(1) from <N> (or <[N]> = x) and its square,
        # so they are held to rtol of that scale.
        p_err = max(abs(g - w) for g, w in itertools.zip_longest(probs, p_ref, fillvalue=0.0))
        errs = {
            "log N": abs(log_n - want["log_n"]) / max(1.0, abs(want["log_n"])),
            "p(n)": p_err / max(p_ref) / max(1.0, len(p_ref) / 1000.0),
            "Q_z": abs(qz - want["q_z"]) / (1.0 + m1),
            "Q_M": abs(qm - want["q_m"]) / (1.0 + x),
            "moments": max(ref.rel_err(m, w) for m, w in zip(moments, want["moments"])),
            # the package's second moment path (Fock sums over its own
            # tables): a self-consistency check
            "Fock sums": max(ref.rel_err(m, f) for m, f in zip(moments, fock)),
        }
        worst = max(errs, key=errs.get)
        if errs[worst] > self.rtol or abs(math.fsum(probs) - 1.0) > 1e-9:
            raise CheckFailed(f"{self.triples[i]} x={x}: {worst} error {errs[worst]:.3g}")
        return errs[worst]


# ------------------------------------------------------------- cold sweep


class ColdSweep(Workload):
    """Fresh triples: factorial tables, spectrum, Hankel, wavefunctions."""

    name = "cold-sweep"
    round_seconds = 0.8
    per_round = 16
    grid = tuple(3.0 * j / 30 for j in range(31))  # the README grid 0:3:31
    wf_tol = 1e-8

    def setup(self) -> None:
        import wcs

        self.wcs = wcs
        self.seen = set()
        # exercise every call of an op once, on a triple the sweep never draws
        warm = (0.5, 0.5, 0.5), 1000
        self.check(warm, self._op(wcs.DeformationParams(*warm[0]), warm[1]))

    def next_round(self) -> list:
        k = self.per_round
        ua, ub, uv, un = (_strata(self.design, self.rng, k) for _ in range(4))
        ops = []
        for i in range(k):
            a = _lerp(0.0, 1.0, ua[i])
            b = _lerp(0.1, 1.0, ub[i])
            # nu in (alpha - 1, alpha + 2]; 1 - u keeps it off the open end
            v = a - 1.0 + 3.0 * (1.0 - uv[i])
            n = int(round(1000.0 * 10.0 ** un[i]))
            ops.append(((a, b, v), n))
        return ops

    def _op(self, p, n: int):
        wcs = self.wcs
        return (
            wcs.log_gen_factorial(n, p),
            math.fsum(wcs.log_box(k, p) for k in range(1, n + 1)),
            wcs.log_factorial_asymptotic(n, p),
            wcs.spectrum_table(100, p),
            [wcs.hankel_hadamard(p, 4, offset) for offset in (0, 1)],
            [[wcs.wavefunction_sample(k, x, p)[0] for x in self.grid] for k in range(4)],
        )

    def run(self, op):
        triple, n = op
        if triple in self.seen:
            raise CheckFailed(f"triple {triple} drawn twice; the sweep must stay cold")
        self.seen.add(triple)
        return self._op(self.wcs.DeformationParams(*triple), n)

    def check(self, op, out) -> float:
        (a, b, v), n = op
        lf, boxes, asym, rows, dets, psi = out
        lf_ref = ref.log_factorial(n, a, b, v)
        errs = [ref.rel_err(lf, lf_ref), ref.rel_err(boxes, lf)]
        if max(errs) > 1e-10:
            raise CheckFailed(f"log [n]! at n={n}: errors {errs}")
        # the asymptote is the leading term: what is left is O(log n), with
        # constants from nu, from the alpha-ratios at b*i < 1 and from
        # log Gamma(1 - alpha + nu); twice that remainder is allowed
        remainder = (1.0 + abs(v) + a) * math.log(b * n) + a / b + abs(math.lgamma(1.0 - a + v)) + 2.0
        if not abs(lf - asym) <= 2.0 * remainder:
            raise CheckFailed(f"log [n]! = {lf} at n={n} is {lf - asym:.4g} from its asymptote")

        brackets = [ref.box(k, a, b, v) for k in range(len(rows) + 1)]
        for row in rows:
            want = (brackets[row.n], brackets[row.n + 1], 0.5 * (brackets[row.n] + brackets[row.n + 1]))
            got = (row.box_n, row.box_n_plus_1, row.energy)
            row_err = max(ref.rel_err(g, w) for g, w in zip(got, want))
            if row_err > 1e-10:
                raise CheckFailed(f"spectrum row {row.n} off by {row_err:.3g}")
            errs.append(row_err)
        for offset, det in enumerate(dets):
            if not det > 0.0:
                raise CheckFailed(f"Hankel determinant {det} at offset {offset}")

        first = [2.0 * math.sqrt(0.5) * x**b * g / math.sqrt(brackets[1]) for x, g in zip(self.grid, psi[0])]
        scale = max(abs(f) for f in first)
        wf_err = max(abs(f - g) for f, g in zip(first, psi[1])) / scale
        if wf_err > self.wf_tol:
            raise CheckFailed(f"first excited state off by {wf_err:.3g} of its maximum")
        return max(errs + [wf_err])


# -------------------------------------------------------------- README CLI


def _floats(text: str, column: str) -> list[float]:
    lines = text.strip().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


def _ref_factorial(out: str) -> float:
    vals = _floats(out, "factorial_or_inf")
    return max(ref.rel_err(v, math.factorial(n)) for n, v in enumerate(vals))


def _ref_spectrum(out: str) -> float:
    lines = out.strip().splitlines()[1:]
    errs = []
    for line in lines:
        n, a, b, v, e = line.split(",")
        n, a, b, v = int(n), float(a), float(b), float(v)
        want = 0.5 * (ref.box(n + 1, a, b, v) + ref.box(n, a, b, v))
        errs.append(ref.rel_err(float(e), want))
    return max(errs)


def _ref_pdist(out: str) -> float:
    want = ref.photon_stats(1.5, 0.0, 1.0, 0.5)["p"]
    got = _floats(out, "probability")
    return max(ref.rel_err(g, w) for g, w in zip(got, want) if w > 1e-300)


def _ref_mandel(out: str) -> float:
    xs, qz, qm = _floats(out, "x"), _floats(out, "q_z"), _floats(out, "q_m")
    errs = []
    for x, z, m in zip(xs, qz, qm):
        want = ref.photon_stats(x, 0.0, 1.0, 0.5)
        errs += [ref.rel_err(z, want["q_z"]), ref.rel_err(m, want["q_m"])]
    return max(errs)


def _ref_uncertainty(out: str) -> float:
    got = _floats(out, "vacuum_product")
    return max(ref.rel_err(g, ref.box(1, 0.0, 1.0, v)) for g, v in zip(got, (0.0, 0.5, 1.0)))


def _ref_wavefunction(out: str) -> float:
    lines = out.strip().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    errs = []
    for k in range(4):
        pts = [(float(r[1]), float(r[2])) for r in rows if int(r[0]) == k]
        want = [ref.hermite_function(k, x) for x, _ in pts]
        scale = max(abs(w) for w in want)
        errs.append(max(abs(g - w) for (_, g), w in zip(pts, want)) / scale)
    return max(errs)


def _ref_weight(out: str) -> float:
    xs, ut, u = _floats(out, "x"), _floats(out, "u_tilde"), _floats(out, "u")
    errs = []
    for x, gt, g in zip(xs, ut, u):
        i0, k0 = ref.bessel_i0_k0(2.0 * math.sqrt(x))
        errs += [ref.rel_err(gt, 2.0 * k0), ref.rel_err(g, 2.0 * k0 * i0 / math.pi)]
    return max(errs)


def _ref_moments(out: str) -> float:
    got = _floats(out, "quadrature_moment")
    return max(
        ref.rel_err(g, math.exp(ref.log_factorial(n, 0.0, 1.0, 0.5))) for n, g in enumerate(got)
    )


def _ref_carleman(out: str) -> float:
    lines = out.strip().splitlines()[1:]
    errs = []
    for line in lines:
        a, b, _, e, det, div = line.split(",")
        want = 0.5 * (float(a) + float(b))
        if (det == "true") != (want <= 1.0) or div != det:
            raise CheckFailed(f"carleman verdict {line!r}")
        errs.append(ref.rel_err(float(e), want))
    return max(errs)


def _ref_hankel(out: str) -> float:
    got = _floats(out, "scaled_det")[0]
    return ref.rel_err(got, ref.hankel_classical(4, 1))


# the ten command lines of the README, each with its reference check
README_COMMANDS = (
    ("factorial --n 0..5", _ref_factorial),
    ("spectrum --alpha 0,0.5,1 --nu 1 --n 0..10", _ref_spectrum),
    ("pdist --x 1.5 --nu 0.5", _ref_pdist),
    ("mandel --nu 0.5 --x 0.1:10:20", _ref_mandel),
    ("uncertainty --nu 0,0.5,1 --units half-hbar", _ref_uncertainty),
    ("wavefunction --k 0..3 --x 0:3:31", _ref_wavefunction),
    ("weight --family wright --alpha 1 --nu 1 --x 0.5:4:8", _ref_weight),
    ("moments --family ml-closed-form --nu 0.5 --nmax 8", _ref_moments),
    ("carleman --alpha 0,1 --beta 0.5,1 --nu 1", _ref_carleman),
    ("hankel --size 4 --offset 1", _ref_hankel),
)


class CliReadme(Workload):
    """The README's wcs command lines, one fresh interpreter each."""

    name = "cli-readme"
    probe_code = "import wcs.cli; print('ready', flush=True)"
    round_seconds = 2.8
    # a README command's output must match its reference to this relative
    # error; the CLI runs series at 1e-8 and quadrature at 1e-6
    tolerance = 1e-5

    def setup(self) -> None:
        import wcs.cli  # noqa: F401  (the import a CLI user pays)

        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.pop("WCS_LOG", None)
        self.first_stdout: dict[str, bytes] = {}
        self.child_traces: list[dict] = []

    def next_round(self) -> list:
        ops = list(range(len(README_COMMANDS)))
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        line = README_COMMANDS[op][0]
        argv = line.split()
        if not self.traced:
            cmd = [sys.executable, "-m", "wcs.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_shim.py"), *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=120)
        if self.traced:
            self.child_traces.append(_child_trace(proc.stderr))
        if proc.returncode in (2, 3, 4):
            raise CliError(f"wcs {line}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
        if proc.returncode != 0:
            raise CheckFailed(f"wcs {line}: exit {proc.returncode}")
        return proc.stdout

    def check(self, op, stdout: bytes) -> float:
        line, check = README_COMMANDS[op]
        seen = self.first_stdout.setdefault(line, stdout)
        if stdout != seen:
            raise CheckFailed(f"wcs {line}: stdout differs between repeats")
        err = check(stdout.decode())
        if not err <= self.tolerance:
            raise CheckFailed(f"wcs {line}: relative error {err:.3g} against its reference")
        return err


class CliError(Exception):
    """The CLI exited with one of its typed failure codes (2, 3, 4)."""


TRACE_MARK = "PERFBENCH_TRACE "


def _child_trace(stderr: bytes) -> dict:
    import json

    for line in reversed(stderr.decode().splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    raise CheckFailed("traced CLI child wrote no trace record")


WORKLOADS = {w.name: w for w in (MomentClosure, PhotonStats, ColdSweep, CliReadme)}
