"""Coherent-state observables and oscillator wavefunctions.

The states are |z> = N(x)^(-1/2) sum_n z^n / sqrt([n]!) |n> with x = |z|^2.
Everything observable follows from the amplitude sequence and the deformed
exponential N: photon-number probabilities, overlaps, normally-ordered
moments, the two Mandel parameters, the commutator bound on the quadrature
spreads in number states, and position wavefunctions built from the x^beta
power lattice.

Every Fock-series sum here (photon distribution, Fock moments, Q_M, the
continuity defect) reads a record of one memo through series._memo_read:
N's series or the r-th derivative's, each summed once by
series._log_series with its single stopping rule: three consecutive terms
|t_n| <= tol * max(1, |S_n|) while the term ratio is below 0.9.  So at one
(p, x, tol) log N, the photon distribution, Q_M and the continuity defect
share one pass of N's series, and every later call gets the same bits:
Q_M = <[A, A+]> - 1, the commutator's diagonal [n+1] - [n] averaged over
N's terms, since <[N]> = x and <[N]^2> = x <[N+1]> in |z>.
normally_ordered_moment and
fock_moment_sum read one record too, the r-th derivative's series from
n = r: the first takes the kernel's running log-scale sum, the second sums
the same terms with math.fsum, so the two agree to rounding by
construction and neither checks the other.  Positive sums stay in log
space so large n and x never overflow, and the linear Fock sums
(fock_moment_sum, both sums of Q_M) go through series._positive_fsum,
which sums the terms that can reach the result exactly and passes the rest
as one float sum.  Those sums, and the continuity defect's direct sum, are
math.fsum's double bit for bit through series._exact_sum, which raises
NumericalRangeError, with the label each passes, past double range; a sum
of more than series._FSUM_MAX terms costs a few numpy passes there.
Brackets and factorials are read as slices of the factorial table.  A
wavefunction is an alternating series on the dimensionless
u = sqrt(m omega / hbar) x^beta, summed by series._lattice_sum with its
cancellation flag, where ground_wavefunction and excited_wavefunction
raise NumericalRangeError.  On u the ground coefficients and their raises
depend on the triple alone: a level table (one functools.lru_cache entry,
at most 4 kept, dropped by series.clear_caches) holds levels
0.._LEVEL_CAP as read-only rows, at the least power of two of at least
_MIN_LENGTH = 128 slots and the lattice's length plus its level, so the
README grid's lattices share one table; two bisections, no Fock series,
give a lattice's length.  A raise reads slots j - 1 and j + 1 only, so a
sample reads the first n slots of the untruncated raise as one slice.
The table also holds the log of each row's largest |coefficient| (+inf
where a slot is not finite): a sample's sum silences numpy's overflow and
invalid warnings only where that bound and u^(n-1) allow a power or a
term past double range.  The r-th moments scale their
series by log r! = log_gamma(r + 1.0).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import commutator_diagonal
from .errors import NumericalRangeError, ParameterError
from .factorials import _brackets, _log_double_run, _table, box, log_gen_factorial
from .gammafn import _MAX_FINITE_LOG, log_gamma
from .params import DeformationParams, PhysicalScales, check_complex, check_count, check_real
from .series import (
    _BEYOND,
    _exact_sum,
    _lattice_sum,
    _log_abs,
    _memo_read,
    _positive_fsum,
    log_n_derivative,
    log_n_function,
    n_function,
)

__all__ = [
    "CoherentLabel",
    "PhotonDistribution",
    "QuadratureStats",
    "photon_pdf",
    "photon_distribution",
    "overlap",
    "continuity_defect",
    "coherent_amplitudes",
    "normally_ordered_moment",
    "fock_moment_sum",
    "mandel_qz",
    "mandel_qm",
    "quadrature_stats",
    "vacuum_uncertainty",
    "ground_wavefunction",
    "excited_wavefunction",
    "wavefunction_sample",
]

_SMALL_X_GUARD = 1e-12  # below this the Mandel ratios are replaced by their limits
_LEVEL_CAP = 12  # the highest wavefunction level
_LONGEST = 40028  # the longest level table: J up to 20 000 (_sized_levels), k up to 12
# slots a level table is built with at least: the lattice of the README
# grid, x = 0..3 at (0, 1, 0), is at most 79 slots long
_MIN_LENGTH = 128
_LOG_CUT = -62.0 * math.log(2.0)  # 2^-62 of min(1, peak), the first ground term being 1
_LATTICE = "wavefunction_sample: lattice series at x = {} for {}: {}"
_MAX_LEVEL_TABLES = 4  # level tables kept, each keyed by (p, slots)
_SHIFT = math.sqrt(0.5)  # the raise's up- and down-shift factor in oscillator units
_MOMENT_OVERFLOW = "{}: the moment of order r = {} at x = {} is beyond double range"


@dataclass(frozen=True)
class CoherentLabel:
    """Complex label z with its cached intensity x = |z|^2."""

    z: complex
    x: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", check_complex(self.z, "z"))
        try:
            object.__setattr__(self, "x", abs(self.z) ** 2)
        except OverflowError:
            raise NumericalRangeError(f"z = {self.z}: |z|^2 overflows double precision") from None

    @classmethod
    def from_intensity(cls, x: float) -> "CoherentLabel":
        return cls(complex(math.sqrt(check_real(x, "x", at_least=0.0)), 0.0))


@dataclass(frozen=True)
class PhotonDistribution:
    probabilities: tuple[float, ...]
    cutoff: int
    tail_mass: float


@dataclass(frozen=True)
class QuadratureStats:
    n: int
    var_q: float
    var_p: float
    product: float


def photon_pdf(
    n: int,
    label: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-12,
) -> float:
    """Probability of n quanta in |z>: x^n / ([n]! N(x))."""
    n = check_count(n, "n")
    check_real(tol, "tol", above=0.0)
    x = label.x
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    log_p = n * math.log(x) - log_gen_factorial(n, p) - log_n_function(x, p, tol=tol)
    return math.exp(log_p)


def photon_distribution(
    label: CoherentLabel,
    p: DeformationParams,
    tail_tol: float = 1e-12,
    max_n: int = 100000,
    tol: float = 1e-13,
) -> PhotonDistribution:
    """All probabilities up to the first n whose remaining mass, summed from
    the tail, is at most tail_tol; normalised by the sum of the same terms."""
    if not 0.0 < check_real(tail_tol, "tail_tol") < 1.0:
        raise ParameterError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    max_n = check_count(max_n, "max_n")
    s = _memo_read(_log_abs(label.x), p, tol, max_n + 1, "photon_distribution")
    probs = np.exp(s.log_terms - s.log_sum)
    beyond = np.append(np.cumsum(probs[:0:-1])[::-1], 0.0)  # mass above each n
    cutoff = int(np.argmax(beyond <= tail_tol))
    return PhotonDistribution(
        probabilities=tuple(probs[: cutoff + 1].tolist()),
        cutoff=cutoff,
        tail_mass=float(beyond[cutoff]),
    )


def overlap(
    l1: CoherentLabel,
    l2: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-13,
) -> complex:
    """<z1|z2> = N(conj(z1) z2) / sqrt(N(x1) N(x2))."""
    num = n_function(l1.z.conjugate() * l2.z, p, tol=tol).value
    scale = 0.5 * (log_n_function(l1.x, p, tol=tol) + log_n_function(l2.x, p, tol=tol))
    return num * math.exp(-scale)


def coherent_amplitudes(
    label: CoherentLabel,
    p: DeformationParams,
    n_max: int,
    tol: float = 1e-13,
) -> list[complex]:
    """Normalized Fock amplitudes c_n = z^n / sqrt([n]! N(x)), n = 0..n_max."""
    n_max = check_count(n_max, "n_max")
    c = complex(math.exp(-0.5 * log_n_function(label.x, p, tol=tol)), 0.0)
    out = [c]
    for lb in _table(p, n_max).log_box[1 : n_max + 1].tolist():
        c = c * label.z * math.exp(-0.5 * lb)
        out.append(c)
    return out


def continuity_defect(
    l1: CoherentLabel,
    l2: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-13,
    max_terms: int = 20000,
) -> float:
    """|direct - kernel| for the squared distance between two states.

    The direct route sums |c_n(z1) - c_n(z2)|^2 over normalized amplitudes;
    the kernel route evaluates 2 (1 - Re <z2|z1>).  Mathematically equal,
    so the returned defect measures numerical agreement of the two paths.
    """
    max_terms = check_count(max_terms, "max_terms", 1)
    kernel = 2.0 * (1.0 - overlap(l2, l1, p, tol=tol).real)
    # the weights of the larger intensity bound both amplitude tails
    x_big = max(l1.x, l2.x)
    lx_big = math.log(x_big) if x_big > 0.0 else -math.inf
    log_w = _memo_read(lx_big, p, tol, max_terms, "continuity_defect").log_terms
    n = np.arange(len(log_w))

    def amplitudes(label: CoherentLabel) -> np.ndarray:
        if label.x == 0.0:
            return (n == 0).astype(complex)
        lw = log_w + n * (math.log(label.x) - lx_big)
        return np.exp(0.5 * (lw - np.logaddexp.reduce(lw)) + 1j * cmath.phase(label.z) * n)

    diffs = np.abs(amplitudes(l1) - amplitudes(l2)) ** 2
    direct = _exact_sum(diffs, ("continuity_defect: {}", _BEYOND))
    return abs(direct - kernel)


def normally_ordered_moment(
    r: int,
    label: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-12,
) -> float:
    """<(A+)^r A^r> in |z>: x^r N^(r)(x) / N(x), assembled from logs."""
    r = check_count(r, "r", 1)
    check_real(tol, "tol", above=0.0)
    x = label.x
    if x == 0.0:
        return 0.0
    return _moment_over_n(r, x, log_n_function(x, p, tol=tol), p, tol)


def _moment_over_n(r: int, x: float, log_n: float, p: DeformationParams, tol: float) -> float:
    # x^r N^(r)(x) / N(x) for x > 0, with log N(x) given
    try:
        return math.exp(r * math.log(x) + log_n_derivative(x, r, p, tol=tol) - log_n)
    except OverflowError:
        message = _MOMENT_OVERFLOW.format("normally_ordered_moment", r, x)
        raise NumericalRangeError(message) from None


def fock_moment_sum(
    r: int,
    label: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 100000,
) -> float:
    """Same moment as an exact Fock sum: sum_n n (n-1) ... (n-r+1) p(n).

    The terms are those normally_ordered_moment sums, read from the same
    memo record: the r-th derivative series of N from n = r, with the log
    falling factorial and its own stopping rule, divided by N.  Here they
    are summed on the linear scale with math.fsum's exact rounding (through
    series._positive_fsum) instead of the kernel's running log-scale sum, so
    this is a second summation of one series, not an independent route."""
    r = check_count(r, "r", 1)
    check_real(tol, "tol", above=0.0)
    check_count(max_terms, "max_terms", 1)
    x = label.x
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    s = _memo_read(lx, p, tol, max_terms, "fock_moment_sum", r)
    log_n = _memo_read(lx, p, tol, max_terms, "fock_moment_sum").log_sum
    # t_r = x^r r! / ([r]! N), and the kernel's terms are t_n / t_r
    log_first = r * lx + log_gamma(r + 1.0) - log_gen_factorial(r, p) - log_n
    with np.errstate(over="ignore"):  # _positive_fsum refuses an infinite term
        terms = np.exp(s.log_terms + log_first)
    return _positive_fsum(terms, (_MOMENT_OVERFLOW, "fock_moment_sum", r, x))


def mandel_qz(
    label: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-12,
) -> float:
    """(m2 - m1^2) / m1 with m_r the normally-ordered moments.

    Vanishes identically in the classical limit; the x -> 0 limit is 0 and
    is returned directly below the guard threshold.
    """
    check_real(tol, "tol", above=0.0)
    if label.x < _SMALL_X_GUARD:
        return 0.0
    log_n = log_n_function(label.x, p, tol=tol)
    m1 = _moment_over_n(1, label.x, log_n, p, tol)
    m2 = _moment_over_n(2, label.x, log_n, p, tol)
    return (m2 - m1 * m1) / m1


def mandel_qm(
    label: CoherentLabel,
    p: DeformationParams,
    tol: float = 1e-13,
    max_terms: int = 100000,
) -> float:
    """(<[N]^2> - <[N]>^2) / <[N]> - 1 with <[N]^k> = sum [n]^k p(n).

    In |z>, <[N]> = x and <[N]^2> = x <[N+1]>, so this is
    <[N+1] - [N]> - 1 = <z|[A, A+]|z> - 1, summed over N's own terms.
    The x -> 0 limit is [1] - 1 and is returned below the guard threshold.
    """
    check_real(tol, "tol", above=0.0)
    check_count(max_terms, "max_terms", 1)
    x = label.x
    if x < _SMALL_X_GUARD:
        return box(1, p) - 1.0
    log_t = _memo_read(math.log(x), p, tol, max_terms, "mandel_qm").log_terms
    b = np.exp(_table(p, len(log_t)).log_box[: len(log_t) + 1])  # [0] to [len(log_t)]
    t = np.exp(log_t - log_t.max())
    label = ("mandel_qm at x = {}: {}", x, _BEYOND)
    return _positive_fsum((b[1:] - b[:-1]) * t, label) / _positive_fsum(t, label) - 1.0


def quadrature_stats(
    n: int,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
) -> QuadratureStats:
    """Robertson's bound in |n>: product = (hbar/2) c, c = [n+1] - [n],
    hbar/2 classically, split as var_q = (hbar / 2 m omega) c and
    var_p = (hbar m omega / 2) c.  These are the variances only at n = 0:
    from A|n> = sqrt([n]) |n-1> they are (hbar / 2 m omega) ([n+1] + [n])
    and (hbar m omega / 2) ([n+1] + [n]), so at (0, 1, 0), n = 1 and
    (hbar, m, omega) = (2, 3, 0.7) var_q is 0.4762, the variance 1.4286.
    ROADMAP item 15 mends the values with acceptance criterion 1.
    """
    n = check_count(n, "n")
    c = commutator_diagonal(n, p)
    return QuadratureStats(
        n=n,
        var_q=0.5 * c * s.hbar / (s.mass * s.omega),
        var_p=0.5 * c * s.hbar * s.mass * s.omega,
        product=0.5 * s.hbar * c,
    )


def vacuum_uncertainty(p: DeformationParams, s: PhysicalScales = PhysicalScales()) -> float:
    """dq dp in the vacuum: (hbar/2) [1]."""
    return 0.5 * s.hbar * commutator_diagonal(0, p)


def wavefunction_sample(
    k: int,
    x: float,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
    tol: float = 1e-12,
) -> tuple[float, bool]:
    """Value of psi_k(x) and a cancellation flag.

    The ground state is the lattice series with the even double factorial
    on u = sqrt(m omega / hbar) x^beta; higher k apply the raising operator
    (u - D) / sqrt(2) as exact coefficient algebra (D the bracket-weighted
    down-shift), then divide by sqrt([k]!), k <= 12.  At (0, 1, 0) psi_k is
    the number state |k>; at a deformed triple not the algebra's: (u + D) /
    sqrt(2) psi_k misses sqrt([k]) psi_(k-1), at k = 1 by 3% to 1000% of it
    for u = 0.5 to 2.  The coefficients are the first n slots of the
    untruncated raise, from the triple's level table.  tol is checked and
    sets nothing.  Raises NumericalRangeError where a lattice term is not
    finite, as when u^j overflows at large x, or _sized_levels refuses x.
    Numpy's warnings are silenced only where the bound on level k's
    coefficients lets a term be non-finite.
    """
    k = check_count(k, "k")
    if k > _LEVEL_CAP:
        raise ParameterError(f"level index k = {k} exceeds the cap {_LEVEL_CAP}")
    x = check_real(x, "x", at_least=0.0)
    check_real(tol, "tol", above=0.0)
    # the ground series sums (-y)^j / [2j]!!, y = u^2 = (m omega / hbar) x^(2 beta)
    inv_length_sq = s.mass * s.omega / s.hbar
    log_y = -math.inf
    if x > 0.0:
        log_y = math.log(inv_length_sq) + 2.0 * p.beta * math.log(x)
    (rows, _, log_tops), n = _sized_levels(k, x, log_y, p)
    scale = (inv_length_sq / math.pi) ** 0.25 * math.exp(-0.5 * log_gen_factorial(k, p))
    u = math.sqrt(inv_length_sq) * x**p.beta
    total, cancel = _lattice_sum(rows[k, :n], u, (_LATTICE, x, p, _BEYOND), log_tops[k])
    return scale * total, cancel


def _sized_levels(k: int, x: float, log_y: float, p: DeformationParams) -> tuple[tuple, int]:
    """The level table (_raised_levels) a sample of level k reads, and its
    lattice length n = 2J + k + 4, J the last j whose ground term
    y^j / [2j]!! is at least 2^-62, by bisection over the table's reach
    column.  The terms rise while [2j+2] < y, then fall: their peak, by
    bisection over log [2j+2], is refused where past the longest table or
    double range, before a level table is built.  Tables double from
    _MIN_LENGTH slots until n + k fit."""
    m = _MIN_LENGTH
    while True:
        tab = _table(p, m)
        evens = tab.box_view[2:m:2]  # log [2], log [4], ... below slot m
        peak = bisect.bisect_left(evens, log_y)
        # the peak's log-term, the sum of log y - log [2i], is <= peak (log y - log [2])
        if peak < len(evens) and peak * (log_y - evens[0]) > _MAX_FINITE_LOG and (
                peak * log_y - _log_double_run(tab.log_box, 0, 2 * peak)[-1] > _MAX_FINITE_LOG):
            why = "the ground terms peak past double range"
            break
        if 2 * peak + 2 * k + 4 <= m:
            levels = _raised_levels(p, m)
            n = 2 * bisect.bisect_right(levels[1], log_y) + k + 4
            if n + k <= m:
                return levels, n
        if m == _LONGEST:
            where = "peak" if peak == len(evens) else "reach"
            why = f"the ground terms {where} past the longest lattice, {_LONGEST} slots"
            break
        m = min(2 * m, _LONGEST)
    raise NumericalRangeError(_LATTICE.format(x, p, why))


@functools.lru_cache(maxsize=_MAX_LEVEL_TABLES)
def _raised_levels(p: DeformationParams, m: int) -> tuple[np.ndarray, memoryview, tuple]:
    """Read-only rows 0.._LEVEL_CAP at length m, in oscillator units, their
    reach column and their bounds.  Row 0 is the ground state: slot 2j holds
    (-1)^j / [2j]!!, the normalization under which the lowering operator
    annihilates it, odd slots 0.  Row i is the raise of row i-1, slot
    j = (0 + h c[j-1]) - (h c[j+1]) [j+1] with h = sqrt(1/2), whose last
    slot has no down-shift term; so row i is the untruncated raise below
    slot m - i.  Reach entry j - 1, 2j < m, is (log 2^-62 + log [2j]!!) / j,
    the least log y where y^j / [2j]!! reaches 2^-62 (off the table's logs:
    row 0 leaves double range where the terms need not); log [2j]!! is
    convex, brackets increasing, so the column rises by > 42 / (j (j + 1)).
    Bound i, the log_top a sample of level i passes to _lattice_sum, is
    log max_j |slot j of row i|, or +inf where a slot is infinite or NaN."""
    b = _brackets(p, m - 1)
    rows = np.zeros((_LEVEL_CAP + 1, m))
    # at tiny beta, [n] ~ beta n and 1 / [2j]!! overflows in slots past
    # those a sample reads; a sample's non-finite slots make _lattice_sum raise
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0, 0] = 1.0
        rows[0, 2::2] = -1.0 / b[2::2]
        np.multiply.accumulate(rows[0, ::2], out=rows[0, ::2])
        for i in range(1, _LEVEL_CAP + 1):
            rows[i, 1:] += _SHIFT * rows[i - 1, :-1]
            rows[i, :-1] -= _SHIFT * rows[i - 1, 1:] * b[1:]
    rows.flags.writeable = False
    log_tops = tuple(_log_abs(t) if math.isfinite(t) else math.inf
                     for t in np.abs(rows).max(axis=1).tolist())
    top = (m - 1) // 2  # the last j with 2j < m; log [2j]!!, j = 1..top:
    log_fact2 = _log_double_run(_table(p, m).log_box, 0, 2 * top)[1:]
    reach = (log_fact2 + _LOG_CUT) / np.arange(1, top + 1)
    reach.flags.writeable = False
    return rows, memoryview(reach), log_tops


def ground_wavefunction(
    x: float,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
    tol: float = 1e-12,
) -> float:
    """<x|0> = (m omega / pi hbar)^(1/4) sum (-m omega/hbar)^n x^(2 beta n) / [2n]!!.

    Raises NumericalRangeError where the series cancels past double
    precision, as excited_wavefunction does."""
    return excited_wavefunction(0, x, p, s, tol=tol)


def excited_wavefunction(
    k: int,
    x: float,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
    tol: float = 1e-12,
) -> float:
    """<x|k> via k exact raising-operator applications to the ground state.

    Raises NumericalRangeError where wavefunction_sample flags cancellation:
    the lattice terms then dwarf their sum and its digits are rounding."""
    value, cancel = wavefunction_sample(k, x, p, s, tol=tol)
    if cancel:
        raise NumericalRangeError(
            f"wavefunction of level {k} at x = {x} for {p}: the lattice series"
            " cancels past double precision"
        )
    return value
