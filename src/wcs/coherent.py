"""Coherent-state observables and oscillator wavefunctions.

The states are |z> = N(x)^(-1/2) sum_n z^n / sqrt([n]!) |n> with x = |z|^2.
Everything observable follows from the amplitude sequence and the deformed
exponential N: photon-number probabilities, overlaps, normally-ordered
moments, the two Mandel parameters, quadrature variances in number states,
and position wavefunctions built from the x^beta power lattice.

Every Fock-series sum here (photon distribution, Fock moments, Q_M, the
continuity defect, the length of the ground-state lattice) is one call of
series._log_series, with its single stopping rule: three consecutive terms
|t_n| <= tol * max(1, |S_n|) while the term ratio is below 0.9.  All but
Q_M's [n]^2 series and fock_moment_sum's own pass from n = r are read from
one memo through series._memo_read, so at one (p, x, tol) log N, the photon
distribution, Q_M's normaliser, the Fock moments and the continuity defect
share one pass of N's series and its kept terms, and every later call gets
the same bits.  Positive sums stay in log space so large n and x never
overflow, and the linear Fock sums (fock_moment_sum, both sums of Q_M) go
through series._positive_fsum, which sums the terms that can reach the
result exactly and passes the rest as one float sum.  Those sums, and
the continuity defect's direct sum, are math.fsum's double bit for bit,
and a sum of more than series._FSUM_MAX terms costs a few numpy passes
(series._exact_sum), not one Python float per term.
Brackets and factorials are read as slices of the factorial table.  The
alternating wavefunction series is summed on the x^beta lattice by
series._lattice_sum, with its cancellation flag; ground_wavefunction and
excited_wavefunction raise NumericalRangeError where the flag is set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import commutator_diagonal
from .errors import NumericalRangeError, ParameterError
from .factorials import _brackets, _table, box, log_gen_factorial
from .params import DeformationParams, PhysicalScales, check_complex, check_count, check_real
from .series import (
    _exact_sum,
    _lattice_sum,
    _log_abs,
    _log_series,
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
_LATTICE_BUDGET = 20000  # term budget of the ground-state lattice series
_MOMENT_OVERFLOW = "{}: the moment of order r = {} at x = {} is beyond double range"


@dataclass(frozen=True)
class CoherentLabel:
    """Complex label z with its cached intensity x = |z|^2."""

    z: complex
    x: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", check_complex(self.z, "z"))
        object.__setattr__(self, "x", abs(self.z) ** 2)

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

    direct = _exact_sum(np.abs(amplitudes(l1) - amplitudes(l2)) ** 2)
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
    tol: float = 1e-13,
    max_terms: int = 100000,
) -> float:
    """Same moment by brute force over the photon distribution:
    sum_n n (n-1) ... (n-r+1) p(n).

    A second route to normally_ordered_moment, which sums the log-scale
    terms of the r-th derivative of N and divides by log N: here p(n) are
    the kept terms of N's own series, the memoised pass photon_distribution
    reads at the same tol, and the falling factorial is applied on the
    linear scale.  N's series stops on N's sum.  Where the weights from
    n = r have not met the stopping rule on their own sum by then (small x,
    large r), they are summed in a pass of their own from n = r instead, so
    no weight that pass would keep is left out."""
    r = check_count(r, "r", 1)
    check_real(tol, "tol", above=0.0)
    check_count(max_terms, "max_terms", 1)
    x = label.x
    if x == 0.0:
        return 0.0
    lx = math.log(x)
    s = _memo_read(lx, p, tol, max_terms, "fock_moment_sum")
    w = np.exp(s.log_terms[r:] - s.log_sum)  # p(n), n >= r
    # the rule holds for all of the last three once it holds for the largest
    if len(w) < 3 or w[-3] > tol * w[:-2].sum():
        tail = _log_series(lx, p, tol, max_terms, "fock_moment_sum", start=r)
        w = np.exp(tail.log_terms + (r * lx - log_gen_factorial(r, p) - s.log_sum))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        total = _positive_fsum(_falling(np.arange(r, r + len(w), dtype=float), r) * w)
    if not math.isfinite(total):
        raise NumericalRangeError(_MOMENT_OVERFLOW.format("fock_moment_sum", r, x))
    return total


def _falling(n: np.ndarray, r: int) -> np.ndarray:
    """n (n-1) ... (n-r+1), multiplied in order of j < r; 1 for r = 0."""
    out = n.copy() if r else np.ones_like(n)
    for j in range(1, r):
        out *= n - j
    return out


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

    The x -> 0 limit is [1] - 1 and is returned below the guard threshold.
    """
    check_real(tol, "tol", above=0.0)
    check_count(max_terms, "max_terms", 1)
    x = label.x
    if x < _SMALL_X_GUARD:
        return box(1, p) - 1.0
    lx = math.log(x)
    s = _log_series(
        lx, p, tol, max_terms, "mandel_qm", start=1, log_factor=lambda n, log_b: 2.0 * log_b
    )
    log_norm = log_n_function(x, p, tol=tol, max_terms=max_terms)
    log_b = _table(p, len(s.log_terms)).log_box[1 : len(s.log_terms) + 1]
    # the first term is [1]^2 p(1) = x [1] / N
    log_e2 = s.log_terms + (lx + log_b[0] - log_norm)
    e1 = _positive_fsum(np.exp(log_e2 - log_b))
    e2 = _positive_fsum(np.exp(log_e2))
    return (e2 - e1 * e1) / e1 - 1.0


def quadrature_stats(
    n: int,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
) -> QuadratureStats:
    """Position/momentum variances in |n> and their product.

    Both variances carry the commutator diagonal [n+1] - [n]; the product
    is (hbar/2) ([n+1] - [n]) and reduces to hbar/2 classically.
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
    """Value of <x|k> and a cancellation flag.

    The ground state is the lattice series with the even double factorial;
    higher k apply the raising operator as exact coefficient algebra
    (multiplication by x^beta shifts slots up; the lattice derivative is
    the bracket-weighted down-shift), then divide by sqrt([k]!).  No
    numerical differentiation anywhere.  Levels run up to 12.  Raises
    NumericalRangeError when a lattice term is not finite, as when
    x^(beta j) overflows at large x.
    """
    k = check_count(k, "k")
    if k > _LEVEL_CAP:
        raise ParameterError(f"level index k = {k} exceeds the cap {_LEVEL_CAP}")
    x = check_real(x, "x", at_least=0.0)
    tol = check_real(tol, "tol", above=0.0)
    # the ground series sums (-y)^n / [2n]!!, y = (m omega / hbar) x^(2 beta)
    log_y = -math.inf
    if x > 0.0:
        log_y = math.log(s.mass * s.omega / s.hbar) + 2.0 * p.beta * math.log(x)
    # size the lattice with a stricter threshold: the raising operator's
    # down-shift multiplies truncated slots by bracket values, so headroom
    # is needed for the stated tol to survive k applications
    what = "ground-state series"
    ground = _memo_read(log_y, p, tol * 1e-4, _LATTICE_BUDGET, what, step=2, phase=-1.0)
    n_slots = 2 * len(ground.log_terms) + k + 4
    # the brackets [j], read once for the lattice and all k raisings
    b = _brackets(p, n_slots - 1)
    # the ground state: slot 2n holds (-m omega / hbar)^n / [2n]!!, the
    # normalization under which the lowering operator annihilates it
    coeffs = np.zeros(n_slots)
    coeffs[0] = 1.0
    coeffs[2::2] = (-s.mass * s.omega / s.hbar) / b[2::2]
    np.multiply.accumulate(coeffs[::2], out=coeffs[::2])

    up = math.sqrt(0.5 * s.mass * s.omega / s.hbar)
    down = math.sqrt(0.5 * s.hbar / (s.mass * s.omega))
    for _ in range(k):
        nxt = np.zeros(n_slots)
        nxt[1:] += up * coeffs[:-1]
        nxt[:-1] -= down * coeffs[1:] * b[1:]
        coeffs = nxt

    ground_scale = (s.mass * s.omega / (math.pi * s.hbar)) ** 0.25
    scale = ground_scale * math.exp(-0.5 * log_gen_factorial(k, p))
    total, cancel = _lattice_sum(
        coeffs.tolist(), x**p.beta, "wavefunction_sample: lattice series at x = {} for {}", x, p
    )
    return scale * total, cancel


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
