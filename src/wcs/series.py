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
_log_series.  It reads the log-terms

    log t_n = (n - start) log|x| - (L_n - L_start) + F(n) - F(start)

elementwise from the factorial table, L_n = log(b_1 ... b_n) with
b_n = [step n]: the table's log [n]! column for step 1, and for step 2 (the
even double factorial) the log brackets added from start in index order,
so no log-term depends on where a block starts.  F is an optional log
factor such as a falling factorial or 2 log [n].  A pass's first block
reaches past where its terms can stop (about the mode of t_n plus eight
widths, or where the term ratio falls below 0.9), so most series are one
block; later blocks double.  The first term is normalised to 1.  One
stopping rule, written once: stop after three consecutive terms with
|t_n| <= tol * max(1, |S_n|), S_n the partial sum, while the next-term
ratio |t_(n+1) / t_n| is below 0.9.  Positive series are summed in log
space and never overflow; signed and complex series (a phase per term)
raise NumericalRangeError once a partial sum overflows, and their values
are taken with math.fsum (_fsum), with a geometric tail bound and the one
cancellation rule (_cancels) as diagnostics, as are sums c_j y^j on the
x^beta lattice (_lattice_sum).
Where a positive series is summed on the linear scale, _positive_fsum
sums exactly only the terms of at least 2^-106 / len of the largest, plus
the float sum of the rest: those weigh under 2^-106 of the total, so they
can only decide a rounding tie, and that sum decides it as they would.
It returns math.fsum's double, bit for bit, through _exact_sum: an array
of up to _FSUM_MAX = 300 terms goes to fsum as it is; a longer one is
first cut by extraction rounds (Rump, Ogita and Oishi's ExtractVector)
into a few doubles whose exact sum is the exact sum of the terms, in a
few numpy passes a round, and fsum, which rounds that exact sum
correctly, returns the same double from them.
Each Fock series is summed once: one bounded memo (_series_memo, read
through _memo_read) keeps the kernel's record with its read-only
log-terms, and clear_caches drops it and the factorial tables beneath it.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
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

# only stop once the term ratio is safely inside the geometric regime
_LOG_RATIO_CEILING = math.log(0.9)
_LOG_MAX = math.log(sys.float_info.max)
# block sizes: a pass's first block reaches past the terms' mode
# (_first_block), and at least _FIRST_BLOCK terms, which cover most small-x
# sums; later blocks double, so a pass whose mode estimate falls short takes
# few more.  The cap bounds the working set: the float64 temporaries of a
# block of 16384 terms stay near 1 MB
_FIRST_BLOCK = 64
_MAX_BLOCK = 16384

# positive terms below 2^-106 / len of the largest weigh less than 2^-106
# (the square of half an ulp) of their sum all together
_NEGLIGIBLE = 2.0**-106

# the longest array _exact_sum hands to math.fsum as it is.  Extraction
# costs a few numpy passes a round, about as much as fsum over 300 terms of
# a decaying series; fsum's cost grows with the length and the exponent
# spread of its terms
_FSUM_MAX = 300

# Fock series the memo keeps, each whole.  They repeat within one
# computation: `wcs wavefunction`, like each cold-sweep benchmark op, sizes
# the ground-state lattice at 31 grid points for each of four levels, and a
# photon-stats op, like `wcs mandel` at each x, reads at most 5 series.  A
# grid of more than 64 points, levels outside, sizes each x once per level.
# The memory held is at most 64 times the longest kept series: about 1.05e4
# terms in the benchmark, up to max_n + 1 for a photon_distribution call
_MAX_SERIES = 64

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


def _no_convergence(what: str, tol: float, max_terms: int) -> ConvergenceError:
    return ConvergenceError(f"{what}: no convergence to tol={tol} within {max_terms} terms")


def _log_abs(v) -> float:
    return math.log(abs(v)) if v else -math.inf


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms), bit for bit, in a few numpy passes on a long array.

    Rump, Ogita and Oishi's ExtractVector (Accurate floating-point
    summation part I, SIAM J. Sci. Comput. 31, 2008): with sigma = 2^e,
    2^e > 2^shift max|p| and 2^shift > n + 2, each q = (sigma + p) - sigma
    is p rounded to a multiple of 2^-53 sigma, p - q is exact, and the q
    sum exactly in any order, since every partial sum is such a multiple
    below sigma.  Rounds run on the remainders p - q until they are all
    zero, so the round sums add up exactly to the sum of the terms, and
    fsum, correctly rounded, returns the same double from them as from the
    terms.  Short arrays, non-finite or all-zero terms, and terms so large
    that sigma would overflow go to fsum as they are.  The input is not
    written to."""
    n = len(terms)
    if n <= _FSUM_MAX:
        return math.fsum(terms.tolist())
    shift = (n + 2).bit_length()
    top = float(np.maximum.reduce(np.abs(terms)))  # NaN if a term is NaN
    # the first sigma, 2^(exponent of top + shift), is at most 2^1023
    if not 0.0 < top < math.ldexp(1.0, sys.float_info.max_exp - 1 - shift):
        return math.fsum(terms.tolist())
    parts, p = [], terms
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
        q = p + sigma
        q -= sigma
        parts.append(float(np.add.reduce(q)))
        p = p - q
        top = float(np.maximum.reduce(np.abs(p)))
    return math.fsum(parts)


def _positive_fsum(terms: np.ndarray) -> float:
    """math.fsum of non-negative terms, with the negligible ones passed as
    one float sum.  A long decaying series spans hundreds of binary
    exponents, and each of _exact_sum's rounds covers about 40 of them;
    the negligible terms' rounded sum still decides a tie in the rounding
    of the rest."""
    if len(terms) == 0:
        return 0.0
    big = terms >= terms.max() * _NEGLIGIBLE / len(terms)
    return _exact_sum(np.concatenate((terms[big], [terms[~big].sum()])))


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
    """F(n) = log n!/(n-r)!, the factor of the r-th derivative term: the
    logs of n - j added in order of j < r, and 0 for r = 0.  That is the
    order of numpy's sum along a row of up to 7; from 8 it adds a row
    pairwise, so F of 8 or more factors keeps that 2-D sum."""
    if r >= 8:
        return lambda n, log_b: np.log(n[:, None] - np.arange(r)).sum(axis=1)

    def f(n: np.ndarray, log_b: np.ndarray) -> np.ndarray:
        total = np.log(n) if r else np.zeros_like(n)
        for j in range(1, r):
            total += np.log(n - j)
        return total

    return f


def _first_block(lx: float, p: DeformationParams, start: int, step: int) -> int:
    """Length of a pass's first block: past where its terms can stop.
    log [step n] ~ (alpha+beta) log(beta step n), so the terms peak near
    n* = x^(1/(alpha+beta)) / (beta step), with width
    sigma = sqrt(n* / (alpha+beta)); 8 sigma past n* a term is about e^-32
    of the peak, and the rule cannot stop before the term ratio falls below
    0.9, at about n* 0.9^(-1/(alpha+beta)), which is further where
    alpha+beta < 1 or n* is large.  The block reaches 64 terms past both,
    at least _FIRST_BLOCK and at most _MAX_BLOCK terms; the budget caps it
    later."""
    e = p.alpha + p.beta
    log_mode = lx / e - math.log(p.beta * step)
    log_ratio_stop = log_mode - _LOG_RATIO_CEILING / e
    if log_ratio_stop >= math.log(_MAX_BLOCK):  # also where x^(1/(alpha+beta)) overflows
        return _MAX_BLOCK
    mode = math.exp(log_mode)
    reach = max(mode + 8.0 * math.sqrt(mode / e), math.exp(log_ratio_stop))
    return int(min(max(reach + 64.0 - start, _FIRST_BLOCK), _MAX_BLOCK))


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
    Raises ConvergenceError when max_terms terms do not meet the rule.  The
    errors name what."""
    tol = check_real(tol, "tol", above=0.0)
    max_terms = check_count(max_terms, "max_terms", 1)
    if lx == -math.inf:  # x = 0: every term after the first vanishes
        return _LogSeries(np.zeros(1), 0.0, -math.inf)
    end = start + max_terms  # first index past the budget
    kept: list[np.ndarray] = []
    l_start = f_start = 0.0
    # running sum S = e^scale * partial; scale >= 0 since the first term is 1
    scale, partial = 0.0, 0.0
    carry = np.zeros(2, dtype=bool)  # the last two flags of the previous block
    lo, size = start, _first_block(lx, p, start, step)
    while lo < end:
        hi = min(lo + size, end)  # terms lo..hi-1, plus hi for the ratio
        tab = _table(p, step * hi)
        # L[n] = log(b_1 ... b_n) for n = lo..hi: the table's log [n]!, or
        # for step 2 log [2n]!! added from start in index order, so no
        # log-term depends on where a block starts
        if step == 1:
            log_fact = tab.log_fact[lo : hi + 1]
        else:
            log_b = tab.log_box[step * (start + 1) : step * hi + 1 : step]
            log_fact = np.add.accumulate(np.append(0.0, log_b))[lo - start :]
        if lo == start:
            l_start = log_fact[0]
        # log t_n = (n - start) lx - (L[n] - L[start]) + F(n) - F(start)
        logs = np.arange(lo - start, hi - start + 1, dtype=float) * lx
        logs -= log_fact - l_start if l_start else log_fact  # L[start] is 0 from n = 0
        if log_factor is not None:
            f = log_factor(
                np.arange(lo, hi + 1, dtype=float), tab.log_box[step * lo : step * hi + 1 : step]
            )
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
        if partial:  # after the first block
            sums += partial * math.exp(scale - top)
        # flags[j + 2] marks term lo + j small; the first two carry the
        # previous block's last two, so run marks three small in a row
        flags = np.empty(hi - lo + 2, dtype=bool)
        flags[:2] = carry
        small = flags[2:]
        floor = math.exp(-top)
        if phase is None:  # positive terms and sums
            np.less_equal(terms, tol * np.maximum(sums, floor), out=small)
        else:
            np.less_equal(np.abs(terms), tol * np.maximum(np.abs(sums), floor), out=small)
        small &= logs[1:] - log_t < _LOG_RATIO_CEILING
        run = small & flags[1:-1]
        run &= flags[:-2]
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
            log_terms = np.concatenate(kept)
            log_sum = top + _log_abs(sums[k - 1])
            return _LogSeries(log_terms, log_sum, float(logs[k] - logs[k - 1]))
        scale, partial = top, sums[-1]
        carry = flags[-2:]
        lo, size = hi, min(2 * size, _MAX_BLOCK)
    raise _no_convergence(what, tol, max_terms)


# One bounded least-recently-used memo of kernel records, each with its
# read-only log-terms: N's plain series (log N, the photon distribution,
# Q_M's normaliser, the Fock moments and the continuity defect read its
# terms), the derivatives' series and the ground-state series.  It is keyed
# by the series alone: log|x|, the triple, tol, step, r and phase.  The term
# budget and the error label only matter when a call fails, so _memo_read
# leaves them in a thread-local for a miss to run the kernel with, and the
# memo stores what it returns, never an error.  The kernel stops at the
# same index under every budget that reaches it, so a hit whose term count
# fits the caller's budget has the bits of a cold run, and one that does
# not raises the ConvergenceError the caller's own run would raise.
_caller = threading.local()


@functools.lru_cache(maxsize=_MAX_SERIES)
def _series_memo(lx, p, tol, step=1, r=None, phase=None) -> _LogSeries:
    max_terms, what = _caller.budget_and_label
    start, factor = (0, None) if r is None else (r, _log_falling(r))
    s = _log_series(lx, p, tol, max_terms, what, start, step, factor, phase)
    s.log_terms.flags.writeable = False
    return s


def _memo_read(
    lx: float, p: DeformationParams, tol: float, max_terms: int, what: str, **key
) -> _LogSeries:
    """The kernel's record of a series, log_terms read-only: from n = 0
    with step and phase, or, for an order r, the r-th derivative's series,
    start r with the falling factorial as log_factor.  Pass each key the
    same way at every call: the memo keys a keyword and a positional
    argument apart."""
    tol = check_real(tol, "tol", above=0.0)
    max_terms = check_count(max_terms, "max_terms", 1)
    _caller.budget_and_label = max_terms, what
    s = _series_memo(lx, p, tol, **key)
    if len(s.log_terms) > max_terms:
        raise _no_convergence(what, tol, max_terms)
    return s


def clear_caches() -> None:
    """Drop the series memo and the factorial tables."""
    _series_memo.cache_clear()
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
    imag = _fsum(terms.imag.tolist(), what) if np.iscomplexobj(terms) else 0.0  # else all 0
    value = complex(_fsum(terms.real.tolist(), what), imag)
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
    return _linear_sum(
        check_complex(x, "x"), p, tol, max_terms, "wright_w",
        log_first=-log_gamma(1.0 - p.alpha + p.nu),
    )


def log_n_function(
    x: float,
    p: DeformationParams,
    tol: float = 1e-12,
    max_terms: int = 10000,
) -> float:
    """log N(x) for real x >= 0, stable for arbitrarily large x."""
    x = check_real(x, "x", at_least=0.0)
    return _memo_read(_log_abs(x), p, tol, max_terms, "log_n_function").log_sum


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
    s = _memo_read(_log_abs(x), p, tol, max_terms, f"log_n_derivative(r={r})", r=r)
    return log_first + s.log_sum


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series f(x) = sum_k coeffs[k] * x^(beta k) on the
    fractional power lattice."""

    coeffs: tuple[float, ...]
    beta: float

    def __call__(self, x: float) -> float:
        """f(x); NumericalRangeError where a term or the sum leaves double range."""
        try:
            y = check_real(x, "x", at_least=0.0) ** self.beta
        except OverflowError:  # x^beta beyond double range, so is every term past the first
            y = math.inf
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
