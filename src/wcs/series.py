"""Power series built on deformed factorials.

The central object is the deformed exponential

    N(x) = sum_{n>=0} x^n / [n]!

which plays the role of exp for the bracket family: it normalizes the
coherent states, its logarithmic derivatives give the photon moments, and
it is an eigenfunction of the lattice derivative D defined by
D x^(beta n) = [n] x^(beta (n-1)).

Every Fock-series sum in the package (N and its derivatives here; the
photon distribution, Fock moments, Mandel Q_M, continuity defect and
ground-state lattice in coherent.py) goes through one private kernel,
_log_series.  It builds the log-terms

    log t_n = (n - start) log|x| - log(b_(start+1) ... b_n) + F(n) - F(start)

in blocks of growing size, as a running sum over slices of the factorial
table's brackets b_n = [step n] (step 2 gives the even double factorial),
with an optional log factor F such as a falling factorial or 2 log [n].
The first term is normalised to 1.  One stopping rule, written once: stop
after three consecutive terms with |t_n| <= tol * max(1, |S_n|), S_n the
partial sum, while the next-term ratio |t_(n+1) / t_n| is below 0.9.
The brackets are read as slices of the table's numpy column.  Positive
series are summed in log space and never overflow; signed and complex
series (a phase per term) raise NumericalRangeError once a partial sum
overflows, and their values are taken with math.fsum (_fsum), with a
geometric tail bound and the one cancellation rule (_cancels) as
diagnostics, as are sums c_j y^j on the x^beta lattice (_lattice_sum).
Where a positive series is summed on the linear scale, _positive_fsum
gives fsum only the terms of at least 2^-106 / len of the largest, plus
the float sum of the rest: those weigh under 2^-106 of the total, so they
can only decide a rounding tie, and that sum decides it as they would.
Where a caller needs only log|S| and the number of terms (log N and its
derivatives, the size of the ground-state lattice), _log_series_summary
runs the kernel once per distinct argument tuple and triple: a bounded
least-recently-used memo (_summary, functools.lru_cache) keeps the pair,
a repeat call returns the same bits, and errors are raised again, never
stored.  clear_caches drops the memo and the factorial tables beneath it.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConvergenceError, NumericalRangeError, ParameterError
from .factorials import _brackets, _clear_tables, _table, log_gen_factorial
from .gammafn import log_gamma
from .params import DeformationParams, check_complex, check_count, check_real

__all__ = [
    "SeriesResult",
    "n_function",
    "log_n_function",
    "n_function_derivative",
    "log_n_derivative",
    "wright_w",
    "PowerSeries",
    "deformed_derivative",
    "eigenfunction_residual",
    "clear_caches",
]

# terms below tol*max(1, |sum|) must repeat this many times before we trust decay
_CONSECUTIVE_SMALL = 3
# only stop once the term ratio is safely inside the geometric regime
_LOG_RATIO_CEILING = math.log(0.9)
_LOG_MAX = math.log(sys.float_info.max)
# block sizes: the first covers most small-x sums in one pass; doubling keeps
# the number of numpy passes logarithmic and the cap bounds the working set
_FIRST_BLOCK = 64
_MAX_BLOCK = 4096

# positive terms below 2^-106 / len of the largest weigh less than 2^-106
# (the square of half an ulp) of their sum all together
_NEGLIGIBLE = 2.0**-106

# series summaries the memo keeps.  They repeat within one computation, not
# across computations: `wcs wavefunction` asks for one per grid point and
# again for each level k, so a grid longer than the bound misses every time.
# The README's grid (like each cold-sweep benchmark op) has 31 points and a
# photon-stats op asks for a handful; 256 leaves room for finer grids, and a
# bound of 4096 only raised peak RSS
_MAX_SUMMARIES = 256

_LOSS_THRESHOLD = 1e8  # |largest term| / |sum| beyond which float cancellation
# has eaten more than half the significand


@dataclass
class SeriesResult:
    """Value of a truncated series plus convergence diagnostics."""

    value: complex
    terms_used: int
    tail_bound: float
    cancellation: bool = False

    @property
    def real(self) -> float:
        return self.value.real


class _LogSeries(NamedTuple):
    log_terms: np.ndarray  # log|t_n| of the kept terms, n = start, start+1, ...
    log_sum: float  # log|S| of the kept terms
    log_ratio: float  # log|t_(n+1) / t_n| after the last kept term


def _phases(phase: complex, k: np.ndarray):
    """phase**k for a unit phase; exact signs on the real axis."""
    if phase == 1.0:
        return 1.0
    if phase == -1.0:
        return np.where(k & 1, -1.0, 1.0)
    return np.exp(1j * cmath.phase(phase) * k)


def _overflow(what: str) -> NumericalRangeError:
    return NumericalRangeError(
        f"{what}: partial sums overflow double precision; use the log-scale variant"
    )


def _log_abs(v) -> float:
    return math.log(abs(v)) if v else -math.inf


def _positive_fsum(terms: np.ndarray) -> float:
    """math.fsum of non-negative terms, with the negligible ones passed as
    one float sum.  A long decaying series spans hundreds of binary
    exponents, so fsum would keep many partials for its small terms; their
    rounded sum still decides a tie in the rounding of the rest."""
    if len(terms) == 0:
        return 0.0
    big = terms >= terms.max() * _NEGLIGIBLE / len(terms)
    return math.fsum([*terms[big].tolist(), float(terms[~big].sum())])


def _fsum(terms: list, what: str, *args) -> float:
    """math.fsum, raising NumericalRangeError where a term or the sum is
    not finite: fsum then returns inf or NaN, or raises.  The error names
    what.format(*args), formatted only then."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # finite terms past the range; inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise NumericalRangeError(
            f"{what.format(*args)}: terms or their sum beyond double range"
        )
    return total


def _cancels(total: complex, largest: float) -> bool:
    """The one cancellation rule: |sum| below 1e-8 of the largest |term|."""
    return abs(total) < largest / _LOSS_THRESHOLD


def _lattice_sum(coeffs, y: float, what: str, *args) -> tuple[float, bool]:
    """sum_j c_j y^j on the x^beta lattice (y = x^beta), y^j by repeated
    multiplication, and whether it cancels; _fsum's label what, args."""
    terms = []
    yj = 1.0
    for c in coeffs:
        terms.append(c * yj)
        yj *= y
    total = _fsum(terms, what, *args)
    return total, _cancels(total, max(map(abs, terms), default=0.0))


def _log_falling(r: int) -> Callable:
    """F(n) = log n!/(n-r)!, the factor of the r-th derivative term."""
    return lambda n, log_b: np.log(n[:, None] - np.arange(r)).sum(axis=1)


def _log_series(
    lx: float,
    p: DeformationParams,
    tol: float,
    max_terms: int,
    what: str,
    start: int = 0,
    step: int = 1,
    log_factor: Callable | None = None,
    phase: complex | None = None,
) -> _LogSeries:
    """Sum the terms t_n, n >= start, with t_start = 1 and
    t_n / t_(n-1) = e^lx / b_n * exp(F(n) - F(n-1)) * phase, b_n = [step n].

    log_factor(n, log_b) gives F on arrays of n and log b_n.  phase None
    marks a positive series; otherwise each term carries phase^(n - start)
    and a partial sum beyond double range raises NumericalRangeError.
    Raises ConvergenceError when max_terms terms do not meet the rule."""
    tol = check_real(tol, "tol", above=0.0)
    max_terms = check_count(max_terms, "max_terms", 1)
    if lx == -math.inf:  # x = 0: every term after the first vanishes
        return _LogSeries(np.zeros(1), 0.0, -math.inf)
    end = start + max_terms  # first index past the budget
    kept: list[np.ndarray] = []
    base = 0.0  # running log weight at the block start, factor excluded
    f_start = 0.0
    # running sum S = e^scale * partial; scale >= 0 since the first term is 1
    scale, partial = 0.0, 0.0
    carry = np.zeros(_CONSECUTIVE_SMALL - 1, dtype=bool)  # last flags of the previous block
    lo, size = start, _FIRST_BLOCK
    while lo < end:
        hi = min(lo + size, end)  # terms lo..hi-1, plus hi for the ratio
        log_b = _table(p, step * hi).log_box[step * lo : step * hi + 1 : step]
        logs = lx - log_b
        logs[0] = base
        np.add.accumulate(logs, out=logs)
        base = logs[-1]
        if log_factor is not None:
            f = log_factor(np.arange(lo, hi + 1, dtype=float), log_b)
            if lo == start:
                f_start = f[0]
            logs += f - f_start
        log_t = logs[:-1]
        top = max(scale, float(np.maximum.reduce(log_t)))
        # terms and partial sums in units of e^top
        terms = np.exp(log_t - top)
        if phase is not None:
            terms = terms * _phases(phase, np.arange(lo - start, hi - start))
        sums = np.add.accumulate(terms)
        sums += partial * math.exp(scale - top)
        small = np.abs(terms) <= tol * np.maximum(np.abs(sums), math.exp(-top))
        small &= logs[1:] - log_t < _LOG_RATIO_CEILING
        flags = np.concatenate((carry, small))
        run = small.copy()
        for shift in range(1, _CONSECUTIVE_SMALL):
            run &= flags[_CONSECUTIVE_SMALL - 1 - shift : len(flags) - shift]
        k = int(run.argmax())
        hit = bool(run[k])
        k = k + 1 if hit else len(small)
        # |S_n| <= n e^top, so only a top near the limit can overflow a sum
        if (
            phase is not None
            and top + math.log(hi) > _LOG_MAX
            and max(log_t[:k].max(), top + _log_abs(np.abs(sums[:k]).max())) > _LOG_MAX
        ):
            raise _overflow(what)
        kept.append(log_t[:k])
        if hit:
            return _LogSeries(
                np.concatenate(kept),
                top + _log_abs(sums[k - 1]),
                float(logs[k] - logs[k - 1]),
            )
        scale, partial = top, sums[-1]
        carry = flags[-(_CONSECUTIVE_SMALL - 1):]
        lo, size = hi, min(2 * size, _MAX_BLOCK)
    raise ConvergenceError(f"{what}: no convergence to tol={tol} within {max_terms} terms")


def _log_series_summary(
    lx: float,
    p: DeformationParams,
    tol: float,
    max_terms: int,
    what: str,
    step: int = 1,
    r: int | None = None,
    phase: complex | None = None,
) -> tuple[float, int]:
    """(log_sum, number of kept terms) of _log_series from n = 0, or, for
    an order r, of the r-th derivative's series (start r, the falling
    factorial as log_factor), remembered by _summary: a repeat call with
    the same arguments returns the same bits without summing, and a call
    that raises raises again."""
    tol = check_real(tol, "tol", above=0.0)
    max_terms = check_count(max_terms, "max_terms", 1)
    return _summary(lx, p, tol, max_terms, what, step, r, phase)


@functools.lru_cache(maxsize=_MAX_SUMMARIES)
def _summary(lx, p, tol, max_terms, what, step, r, phase) -> tuple[float, int]:
    # keyed by the label too: each caller's label follows from step, r, phase
    start, factor = (0, None) if r is None else (r, _log_falling(r))
    s = _log_series(lx, p, tol, max_terms, what, start, step, factor, phase)
    return s.log_sum, len(s.log_terms)


def clear_caches() -> None:
    """Drop the series summaries and the factorial tables."""
    _summary.cache_clear()
    _clear_tables()


def _linear_sum(
    x: complex,
    p: DeformationParams,
    tol: float,
    max_terms: int,
    what: str,
    start: int = 0,
    log_factor: Callable | None = None,
    log_first: float = 0.0,
) -> SeriesResult:
    """Value and diagnostics of the series with first term e^log_first,
    summed on linear scale with compensated addition."""
    ax = abs(x)
    lx = math.log(ax) if ax > 0.0 else -math.inf
    phase = x / ax if ax > 0.0 else 1.0
    s = _log_series(lx, p, tol, max_terms, what, start, log_factor=log_factor, phase=phase)
    log_t = s.log_terms + log_first
    with np.errstate(over="ignore", invalid="ignore"):  # inf * (1 + 0j) is NaN
        terms = np.exp(log_t) * _phases(phase, np.arange(len(log_t)))
    value = complex(_fsum(terms.real.tolist(), what), _fsum(terms.imag.tolist(), what))
    last, ratio = math.exp(log_t[-1]), math.exp(s.log_ratio)
    return SeriesResult(
        value=value,
        terms_used=len(log_t),
        tail_bound=last * ratio / (1.0 - ratio),
        cancellation=_cancels(value, math.exp(log_t.max())),
    )


def n_function(
    x: complex,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> SeriesResult:
    """N(x) = sum x^n / [n]! with diagnostics.

    Raises NumericalRangeError when the value itself overflows; use
    log_n_function for large positive arguments.
    """
    return _linear_sum(check_complex(x, "x"), p, tol, max_terms, "n_function")


def n_function_derivative(
    x: complex,
    r: int,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> SeriesResult:
    """r-th ordinary derivative of N: sum_{n>=r} n!/(n-r)! x^(n-r) / [n]!."""
    x = check_complex(x, "x")
    r = check_count(r, "r")
    return _linear_sum(
        x, p, tol, max_terms, f"n_function_derivative(r={r})",
        start=r, log_factor=_log_falling(r),
        log_first=log_gamma(r + 1.0) - log_gen_factorial(r, p),
    )


def wright_w(
    x: complex,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> SeriesResult:
    """The scaled series N(x) / Gamma(1 - alpha + nu).

    At alpha = 1 this is the classical Wright function of (beta, nu); the
    normalization makes the n = 0 coefficient equal 1/Gamma(1 - alpha + nu).
    """
    base = n_function(x, p, tol=tol, max_terms=max_terms)
    scale = math.exp(-log_gamma(1.0 - p.alpha + p.nu))
    value = base.value * scale
    if not cmath.isfinite(value):  # a scale above 1 can push N past the range
        raise NumericalRangeError("wright_w: the value overflows double precision")
    return SeriesResult(
        value=value,
        terms_used=base.terms_used,
        tail_bound=base.tail_bound * scale,
        cancellation=base.cancellation,
    )


def log_n_function(
    x: float,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> float:
    """log N(x) for real x >= 0, stable for arbitrarily large x."""
    x = check_real(x, "x", at_least=0.0)
    return _log_series_summary(_log_abs(x), p, tol, max_terms, "log_n_function")[0]


def log_n_derivative(
    x: float,
    r: int,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> float:
    """log of the r-th derivative of N at real x >= 0 (all terms positive)."""
    x = check_real(x, "x", at_least=0.0)
    r = check_count(r, "r")
    log_first = log_gamma(r + 1.0) - log_gen_factorial(r, p)
    log_sum, _ = _log_series_summary(
        _log_abs(x), p, tol, max_terms, f"log_n_derivative(r={r})", r=r
    )
    return log_first + log_sum


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series f(x) = sum_k coeffs[k] * x^(beta k) on the
    fractional power lattice."""

    coeffs: tuple[float, ...]
    beta: float

    def __call__(self, x: float) -> float:
        """f(x); NumericalRangeError where a term or the sum leaves double range."""
        y = check_real(x, "x", at_least=0.0) ** self.beta
        return _lattice_sum(self.coeffs, y, "PowerSeries at x = {}", x)[0]

    def shifted_up(self) -> "PowerSeries":
        """Multiply by x^beta: shift every coefficient up one lattice slot."""
        return PowerSeries((0.0,) + self.coeffs, self.beta)


def deformed_derivative(f: PowerSeries, p: DeformationParams) -> PowerSeries:
    """Apply D with D x^(beta n) = [n] x^(beta (n-1)) coefficient-wise."""
    if f.beta != p.beta:
        raise ParameterError(
            f"series lattice beta={f.beta} does not match parameters beta={p.beta}"
        )
    b = _brackets(p, len(f.coeffs) - 1)[1:].tolist()
    return PowerSeries(tuple(c * bk for c, bk in zip(f.coeffs[1:], b)), f.beta)


def eigenfunction_residual(
    lam: float,
    x: float,
    p: DeformationParams,
    tol: float = 1e-12,
) -> float:
    """Relative defect in D N(lam x^beta) = lam N(lam x^beta).

    The left side goes through the explicit lattice-coefficient route, the
    right through the direct series sum, so the residual measures how well
    the two independent evaluations realize the eigenfunction identity.
    """
    lam = check_real(lam, "lam", above=0.0)
    x = check_real(x, "x", at_least=0.0)
    y = lam * x**p.beta
    probe = n_function(y, p, tol=tol)
    ref = probe.value.real
    n_coeffs = probe.terms_used + 4
    coeffs = [1.0]
    for b in _brackets(p, n_coeffs - 1)[1:].tolist():
        coeffs.append(coeffs[-1] * lam / b)
    f = PowerSeries(tuple(coeffs), p.beta)
    lhs = deformed_derivative(f, p)(x)
    return abs(lhs - lam * ref) / abs(lam * ref)
