"""Power series built on deformed factorials.

The central object is the deformed exponential

    N(x) = sum_{n>=0} x^n / [n]!

which plays the role of exp for the bracket family: it normalizes the
coherent states, its logarithmic derivatives give the photon moments, and
it is an eigenfunction of the lattice derivative D defined by
D x^(beta n) = [n] x^(beta (n-1)).

Every Fock-series sum in the package (N and its derivatives here; the
photon distribution, Fock moments, Mandel Q_M and continuity defect in
coherent.py) is one of two series, named by a key, that one private
kernel, _log_series, sums: N's (None, from n = 0) and the r-th
derivative's (r, from n = r).  It reads the log-terms

    log t_n = (n - start) log|x| - (log [n]! - log [start]!) + F(n) - F(start)

elementwise from the factorial table's log [n]! column, so no log-term
depends on where a block starts.  F is 0 or the falling factorial
F_r(n) = log n!/(n-r)!, which depends on neither the triple nor x, so a
block slices F_r(n) - F_r(r) off a read-only column (_column), a
functools.lru_cache entry keyed by the order r and a doubled length, the
least power of two that reaches past the block, and dropped by
clear_caches.  A pass's first block reaches past where its terms can
stop (about the mode of t_n plus eight widths, or where the term ratio
falls below 0.9), so most series are one block, returned as a slice of
it; later blocks double.  The first term is normalised to 1.  One
stopping rule, written once: stop after three consecutive terms with
|t_n| <= tol * max(1, |S_n|), S_n the partial sum, while the next-term
ratio |t_(n+1) / t_n| is below 0.9.  A block flags its small terms in
two array passes, and _stop scans the flagged indices in Python for
three in a row, counting the run of small terms that ended the previous
block (0 to 2).  The kernel sums in units of the largest term so far,
never overflows and raises only ConvergenceError.  A term is small only
where its ratio is below 0.9, and N's ratio x / [n+1] bounds every
kind's from below, so a block that reaches the budget's end is refused
before it is summed where every log [n+1] in it stays below lx - log 0.9
by more than a rounding margin (_hopeless): the same ConvergenceError,
in a few scalar reads and one max, that the exhausted pass raises.  The
record carries log_top, the largest log-term, which is the kernel's top
at the stop, since the rule stops only past the terms' peak; readers take
it instead of a max over the terms.  Every linear-scale sum goes
through _exact_sum, the one helper that raises
NumericalRangeError, where a term or the sum leaves double range, with
the label its caller passes as one tuple, formatted only then: N and its
derivatives (_linear_sum, with a geometric tail bound and the one
cancellation rule, _cancels, as diagnostics), sums c_j y^j on the x^beta
lattice (_lattice_sum, which silences numpy's warnings only where a
bound on its coefficients and y allow a term past double range), and
coherent's Fock moments, Q_M and continuity defect.
Where a positive series is summed on the linear scale, _positive_fsum
hands up to _FSUM_MAX terms to _exact_sum whole, fsum of them all; of a
longer array it sums exactly only the terms of at least 2^-106 / len of
the largest, plus the float sum of the rest: those weigh under 2^-106 of
the total, so they can only decide a rounding tie, and that sum decides
it as they would; where no term is negligible the terms go on whole,
since their exact sum with 0.0 is theirs.  _exact_sum returns math.fsum's double, bit for bit:
an array of up to _FSUM_MAX = 300 terms goes to fsum as it is; a longer
one is first cut by extraction rounds (Rump, Ogita and Oishi's
ExtractVector) into a few doubles whose exact sum is the exact sum of the
terms, in a few numpy passes a round, and fsum, which rounds that exact
sum correctly, returns the same double from them.
Each Fock series is summed once: one bounded memo (_series_memo, read
through _memo_read), the kernel's only caller, keeps its records with
read-only log-terms, and clear_caches drops it, the kernel's columns, the
factorial tables beneath it and the wavefunction level tables.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NumericalRangeError, ParameterError
from .factorials import _brackets, _clear_tables, _table, log_gen_factorial
from .gammafn import _MAX_FINITE_LOG, log_gamma
from .params import _REALS, DeformationParams, check_complex, check_count, check_real

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
# block sizes: a pass's first block reaches past the terms' mode
# (_first_block), and at least _FIRST_BLOCK terms, which cover most small-x
# sums; later blocks double, so a pass whose mode estimate falls short takes
# few more.  The cap bounds the working set: the float64 temporaries of a
# block of 16384 terms stay near 1 MB
_FIRST_BLOCK = 64
_MAX_BLOCK = 16384
_LOG_MAX_BLOCK = math.log(_MAX_BLOCK)

# what a linear-scale sum past double range says after its label
_BEYOND = "terms or their sum beyond double range"

# positive terms below 2^-106 / len of the largest weigh less than 2^-106
# (the square of half an ulp) of their sum all together
_NEGLIGIBLE = 2.0**-106

# the longest array _exact_sum hands to math.fsum as it is.  Extraction
# costs a few numpy passes a round, about as much as fsum over 300 terms of
# a decaying series; fsum's cost grows with the length and the exponent
# spread of its terms
_FSUM_MAX = 300

# Fock series the memo keeps, each whole: a photon-stats op, like `wcs
# mandel` at each x, reads 4 (N's at two tolerances, r = 1 and 2).
# It holds at most 64 times the longest kept series: about 1.05e4 terms in
# the benchmark, up to max_n + 1 for a photon_distribution call
_MAX_SERIES = 64

# orders r whose falling-factor column is kept: a photon-statistics call
# reads r = 1, 2
_MAX_ORDERS = 32

# logs of n - j a falling factor holds at a time: 8 MB of float64
_FALLING_CHUNK = 2**20

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
    log_top: float  # log_terms.max(): the rule stops only past the terms' peak


def _phases(phase: complex, k0: int, n: int):
    """phase**k, k = k0..k0+n-1, for a unit phase; exact signs on the real
    axis."""
    if phase == 1.0:
        return 1.0
    if phase == -1.0:
        return np.where(np.arange(k0, k0 + n) & 1, -1.0, 1.0)
    return np.exp(1j * cmath.phase(phase) * np.arange(k0, k0 + n))


def _log_mode(lx: float, p: DeformationParams) -> float:
    """log n*, n* = x^(1/(alpha+beta)) / beta: about where the terms t_n
    peak, since log [n] ~ (alpha+beta) log(beta n)."""
    return lx / (p.alpha + p.beta) - math.log(p.beta)


def _no_convergence(
    what: str, tol: float, max_terms: int, lx: float, p: DeformationParams, start: int
) -> ConvergenceError:
    """The Fock series' ConvergenceError, naming about where its terms peak:
    n*, or the first term's n where n* is within one of it or below."""
    log_mode = _log_mode(lx, p)
    if log_mode >= _MAX_FINITE_LOG:
        peak = f"10^{log_mode / math.log(10.0):.0f}"
    elif math.exp(log_mode) >= start + 1:
        peak = f"{math.exp(log_mode):.3g}"
    else:
        peak = str(start)
    return ConvergenceError(
        f"{what}: no convergence to tol={tol} within {max_terms} terms; "
        f"its terms peak near n ~ {peak}"
    )


def _log_abs(v) -> float:
    return math.log(abs(v)) if v else -math.inf


def _range_error(label: tuple) -> NumericalRangeError:
    """The range error of a linear-scale sum labelled (what, *args): its
    message what.format(*args), formatted only for the error."""
    what, *args = label
    return NumericalRangeError(what.format(*args))


def _exact_sum(terms: np.ndarray, label: tuple) -> float:
    """math.fsum(terms), bit for bit, in a few numpy passes on a long array.
    Where fsum returns inf or NaN, or raises, _range_error(label).

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
    n, parts = len(terms), None
    if n > _FSUM_MAX:
        shift = (n + 2).bit_length()
        top = float(np.maximum.reduce(np.abs(terms)))  # NaN if a term is NaN
        # the first sigma, 2^(exponent of top + shift), is at most 2^1023
        if 0.0 < top < math.ldexp(1.0, sys.float_info.max_exp - 1 - shift):
            parts, p = [], terms
            while top:
                sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
                q = p + sigma
                q -= sigma
                parts.append(float(np.add.reduce(q)))
                p = p - q
                top = float(np.maximum.reduce(np.abs(p)))
    try:
        total = math.fsum(terms.tolist() if parts is None else parts)
    except (OverflowError, ValueError):  # finite terms past the range; inf - inf
        total = math.nan
    if math.isfinite(total):
        return total
    raise _range_error(label)


def _positive_fsum(terms: np.ndarray, label: tuple) -> float:
    """math.fsum of non-negative terms, those of a long array with the
    negligible ones passed as one float sum; its range error is
    _range_error(label).  Up to _FSUM_MAX terms go to _exact_sum as they
    are, fsum of them all, the correctly rounded sum the split stands for,
    without its max, mask and copies.  A long decaying series spans
    hundreds of binary exponents, and each of _exact_sum's rounds covers
    about 40 of them; the negligible terms' rounded sum still decides a tie
    in the rounding of the rest.  There an infinite or NaN largest term is
    refused first, as fsum's sum would be, so the float sum of the
    negligible terms cannot overflow."""
    if len(terms) <= _FSUM_MAX:
        return _exact_sum(terms, label)
    top = terms.max()
    if not math.isfinite(top):
        raise _range_error(label)
    big = terms >= top * _NEGLIGIBLE / len(terms)
    if big.all():  # the exact sum of the terms and 0.0 is theirs
        return _exact_sum(terms, label)
    return _exact_sum(np.concatenate((terms[big], [terms[~big].sum()])), label)


def _cancels(total: complex, largest: float) -> bool:
    """The one cancellation rule: |sum| below 1e-8 of the largest |term|."""
    return abs(total) < largest / _LOSS_THRESHOLD


def _lattice_sum(
    coeffs: np.ndarray, y: float, label: tuple, log_top: float = math.inf
) -> tuple[float, bool]:
    """sum_j c_j y^j on the x^beta lattice (y = x^beta, or a multiple of
    it) for a float array of n >= 1 coefficients, and whether it cancels;
    the range error is _range_error(label).  y^j is the running product of
    y, the bits of repeated multiplication, and the terms go to _exact_sum.
    log_top bounds log max_j |c_j| (+inf, the default, bounds nothing).  A
    term is infinite or NaN only where a power or a coefficient is, and
    _exact_sum raises then, so numpy's overflow and invalid warnings are
    silenced where (n - 1) max(log y, 0) + max(log_top, 0) reaches
    _MAX_FINITE_LOG - 1.  Below that every power and term is finite, with
    a factor e to spare for the rounding of the powers, and the same calls
    run without np.errstate, which sets how numpy reports floating-point
    errors, not the results."""
    n = len(coeffs)
    terms = np.empty(n)  # y^0, y^1, ..., then the terms in place
    terms.fill(y)
    terms[0] = 1.0
    # NaN (y = inf at n = 1) takes the silenced path too
    log_reach = max(log_top, 0.0) + ((n - 1) * math.log(y) if y > 1.0 else 0.0)
    if log_reach < _MAX_FINITE_LOG - 1.0:
        np.multiply(coeffs, np.multiply.accumulate(terms, out=terms), out=terms)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(coeffs, np.multiply.accumulate(terms, out=terms), out=terms)
    total = _exact_sum(terms, label)
    return total, _cancels(total, float(np.maximum.reduce(np.abs(terms, out=terms))))


def _log_falling(r: int, n: np.ndarray) -> np.ndarray:
    """F_r(n) = log n!/(n-r)!, the factor of the r-th derivative term: the
    logs of n - j summed along a row over j < r, and 0 for r = 0.  Each
    entry is a function of its n alone, so the kernel reads the r-th
    derivative's series, from n = r, off a column of the order (_column).
    The rows are summed _FALLING_CHUNK logs at a time, at least one row;
    each row's sum is the same reduction as in one (len(n), r) array."""
    j = np.arange(r)
    rows = max(1, _FALLING_CHUNK // max(r, 1))
    out = np.empty(len(n))
    for lo in range(0, len(n), rows):
        logs = np.subtract(n[lo : lo + rows, None], j)
        np.log(logs, out=logs).sum(axis=1, out=out[lo : lo + rows])
    return out


@functools.lru_cache(maxsize=_MAX_ORDERS)
def _column(r: int, n: int) -> np.ndarray:
    """The read-only column the kernel slices an r-th derivative's blocks
    off: F_r(r + k) - F_r(r), k = 0..n-1.  The kernel asks for the least
    power of two n at least a block's reach, so a column is no longer than
    twice the furthest read of it.  F_r is made by _log_falling's own ufunc
    ops over n, so each entry has the bits of a block's F(n) - F(start)
    made afresh, whatever the column's length."""
    col = _log_falling(r, np.arange(n, dtype=float) + r)
    col -= col[0]
    col.flags.writeable = False
    return col


def _stop(small: np.ndarray, run: int) -> tuple[int, int]:
    """The stop in a block, from its terms' small flags: the count of its
    terms kept, through the first that ends three small terms in a row
    (the run of 0 to 2 that ended the previous block counted in), or -1
    where none does; and the run of small terms that ends the block.  The
    small terms' indices are scanned as Python ints 8, 16, 32, ... at a
    time: before the stop they are few, past it a block may hold
    thousands."""
    found = small.nonzero()[0]
    last, lo, size = -1, 0, 8
    while lo < len(found):
        for i in found[lo : lo + size].tolist():
            run = run + 1 if i == last + 1 else 1
            if run == 3:
                return i + 1, 0
            last = i
        lo, size = lo + size, 2 * size
    return -1, run if last == len(small) - 1 else 0


def _first_block(lx: float, p: DeformationParams, start: int) -> int:
    """Length of a pass's first block: past where its terms can stop.
    The terms peak near n* (_log_mode), with width
    sigma = sqrt(n* / (alpha+beta)); 8 sigma past n* a term is about e^-32
    of the peak, and the rule cannot stop before the term ratio falls below
    0.9, at about n* 0.9^(-1/(alpha+beta)), which is further where
    alpha+beta < 1 or n* is large.  The block reaches 64 terms past both,
    at least _FIRST_BLOCK and at most _MAX_BLOCK terms; the budget caps it
    later."""
    e = p.alpha + p.beta
    log_mode = _log_mode(lx, p)
    log_ratio_stop = log_mode - _LOG_RATIO_CEILING / e
    if log_ratio_stop >= _LOG_MAX_BLOCK:  # also where x^(1/(alpha+beta)) overflows
        return _MAX_BLOCK
    mode = math.exp(log_mode)
    size = max(mode + 8.0 * math.sqrt(mode / e), math.exp(log_ratio_stop)) + 64.0 - start
    return _FIRST_BLOCK if size <= _FIRST_BLOCK else _MAX_BLOCK if size >= _MAX_BLOCK else int(size)


def _hopeless(tab, lo: int, end: int, lx: float, kind: int | None) -> bool:
    """Whether no term n = lo..end-1 of a pass can be flagged small, so the
    pass cannot stop within its budget.  A term is small only where its
    ratio is below 0.9, and N's ratio x / [n+1] bounds every kind's from
    below: a derivative's carries (n+1) / (n+1-r) >= 1, and a phase leaves
    |t_n| as it is.  So the pass is hopeless where every log [n+1] is below
    lx - log 0.9 by more than

        margin = 2^-40 (1 + end (|lx| + |log [1]| + |log [end]|) + r log end),

    r the derivative's order.  Brackets rise with n, so end times the
    larger of |log [1]| and |log [end]| bounds every log [n]! and the sum
    of the |log [k]| it adds; F_r(n) <= r log n.  A ratio the kernel forms,
    the difference of two log-terms, is a few roundings of such parts, and
    the table's log [n+1]! - log [n]! is its log [n+1] to a few ulps of
    them, so it errs by far less than the margin, 4096 ulps of their sum.
    The last bracket is tried first: where it reaches the bound, as in a
    pass that can stop, no slice is read."""
    log_box = tab.log_box
    margin = math.ldexp(
        1.0 + end * (abs(lx) + abs(log_box.item(1)) + abs(log_box.item(end)))
        + (kind or 0) * math.log(end), -40)
    bound = lx - _LOG_RATIO_CEILING - margin  # NaN at an infinite lx or bracket: no refusal
    return log_box.item(end) < bound and float(np.maximum.reduce(log_box[lo + 1 : end + 1])) < bound


def _log_series(
    lx: float, p: DeformationParams, tol: float, max_terms: int, what: str,
    kind: int | None = None, phase: complex | None = None,
) -> _LogSeries:
    """Sum the terms t_n, n >= start, of the series keyed kind (start and F
    as the module docstring gives them), with t_start = 1 and
    t_n / t_(n-1) = e^lx / [n] * exp(F(n) - F(n-1)) * phase.

    phase None marks a positive series; otherwise each term carries
    phase^(n - start).  Sums are held in units of the largest term so far,
    so none overflows here.  Raises ConvergenceError, naming about where the
    terms peak, when max_terms terms do not meet the rule; the error names
    what.  The callers check tol and max_terms."""
    if lx == -math.inf:  # x = 0: every term after the first vanishes
        return _LogSeries(np.zeros(1), 0.0, -math.inf, 0.0)
    start = kind or 0
    end = start + max_terms  # first index past the budget
    kept: list[np.ndarray] = []
    # running sum S = e^scale * partial; scale >= 0 since the first term is 1
    scale, partial = 0.0, 0.0
    run = 0  # the small terms that end the previous block, 0 to 2
    lo, size = start, _first_block(lx, p, start)
    while lo < end:
        hi = min(lo + size, end)  # terms lo..hi-1, plus hi for the ratio
        tab = _table(p, hi)
        if hi == end and _hopeless(tab, lo, end, lx, kind):
            break  # refused before summing: no term left can be small
        log_fact = tab.log_fact[lo : hi + 1]  # log [n]!, n = lo..hi
        if lo == start:
            l_start = log_fact[0]
        # log t_n = (n - start) lx - (log [n]! - log [start]!) + F(n) - F(start),
        # with a falling factor's F(n) - F(start) read off its column at
        # k = n - start
        k_lo, k_hi = lo - start, hi - start + 1
        logs = np.arange(k_lo, k_hi, dtype=float)
        logs *= lx
        logs -= log_fact - l_start if l_start else log_fact  # log [0]! is 0
        if kind is not None:
            logs += _column(kind, 1 << (k_hi - 1).bit_length())[k_lo:k_hi]
        log_t = logs[:-1]
        top = max(scale, float(np.maximum.reduce(log_t)))
        # terms and partial sums in units of e^top
        terms = np.subtract(log_t, top)
        np.exp(terms, out=terms)
        if phase is not None:
            terms = terms * _phases(phase, lo - start, hi - lo)
        sums = np.add.accumulate(terms)
        if partial:  # after the first block
            sums += partial * math.exp(scale - top)
        floor = math.exp(-top)
        if phase is None:  # positive terms and sums
            small = np.less_equal(terms, tol * np.maximum(sums, floor))
        else:
            small = np.less_equal(np.abs(terms), tol * np.maximum(np.abs(sums), floor))
        small &= logs[1:] - log_t < _LOG_RATIO_CEILING
        k, run = _stop(small, run)
        hit = k > 0
        if not hit:
            k = len(small)
        if hit:
            log_terms = np.concatenate((*kept, log_t[:k])) if kept else log_t[:k]
            log_sum = top + _log_abs(sums[k - 1])
            return _LogSeries(log_terms, log_sum, float(logs[k] - logs[k - 1]), top)
        kept.append(log_t)
        scale, partial = top, sums[-1]
        lo, size = hi, min(2 * size, _MAX_BLOCK)
    raise _no_convergence(what, tol, max_terms, lx, p, start)


# One bounded least-recently-used memo of kernel records, each with its
# read-only log-terms: N's plain series (log N, the photon distribution,
# Q_M and the continuity defect read its terms), the derivatives' series
# (both moment functions read their terms), and the series n_function,
# wright_w and n_function_derivative sum at each phase of x.  It is keyed
# by the series alone: log|x|, the triple, tol, kind and phase, passed
# positionally.  The term budget and the error label only matter when a
# call fails, so _memo_read leaves them in a thread-local for a miss to run
# the kernel with, and the memo stores what it returns, never an error.
# The kernel stops at the same index under every budget that reaches it,
# so a hit whose term count fits the caller's budget has the bits of a
# cold run, and one that does not raises the ConvergenceError the caller's
# own run would raise.
_caller = threading.local()


@functools.lru_cache(maxsize=_MAX_SERIES)
def _series_memo(lx, p, tol, kind, phase) -> _LogSeries:
    max_terms, what = _caller.budget_and_label
    s = _log_series(lx, p, tol, max_terms, what, kind, phase)
    s.log_terms.flags.writeable = False
    return s


def _memo_read(
    lx: float, p: DeformationParams, tol: float, max_terms: int, what: str,
    kind: int | None = None, phase: complex | None = None,
) -> _LogSeries:
    """The kernel's record of the series keyed kind (None for N's, an
    order r for the r-th derivative's) with phase, its log_terms
    read-only."""
    tol = check_real(tol, "tol", above=0.0)
    max_terms = check_count(max_terms, "max_terms", 1)
    _caller.budget_and_label = max_terms, what
    s = _series_memo(lx, p, tol, kind, phase)
    if len(s.log_terms) > max_terms:
        raise _no_convergence(what, tol, max_terms, lx, p, kind or 0)
    return s


def clear_caches() -> None:
    """Drop the series memo, the kernel's falling-factor columns, the
    factorial tables and the wavefunction level tables."""
    from .coherent import _raised_levels  # coherent imports this module

    _series_memo.cache_clear()
    _column.cache_clear()
    _raised_levels.cache_clear()
    _clear_tables()


def _linear_sum(
    x: complex,
    p: DeformationParams,
    tol: float,
    max_terms: int,
    what: str,
    r: int | None = None,
    log_first: float = 0.0,
) -> SeriesResult:
    """Value and diagnostics of the memo's series (N's, or for an order r
    the r-th derivative's) with first term e^log_first, summed on linear
    scale with compensated addition.  Past double range the error names
    what, and at real x > 0 the log-scale function of the same series."""
    ax = abs(x)
    lx = math.log(ax) if ax > 0.0 else -math.inf
    phase = x / ax if ax > 0.0 else 1.0
    s = _memo_read(lx, p, tol, max_terms, what, r, phase)
    log_t = s.log_terms + log_first
    with np.errstate(over="ignore", invalid="ignore"):  # inf * (1 + 0j) is NaN
        terms = np.exp(log_t) * _phases(phase, 0, len(log_t))
    # at real x > 0 the error names the log-scale function of the same series
    variant = "log_n_function" if r is None else "log_n_derivative"
    hint = f"; use {variant}" if phase == 1.0 else ""
    label = ("{}: {}{}", what, _BEYOND, hint)
    imag = 0.0  # the terms are real at real x
    if np.iscomplexobj(terms):
        imag = _exact_sum(terms.imag, label)
    value = complex(_exact_sum(terms.real, label), imag)
    last, ratio = math.exp(log_t[-1]), math.exp(s.log_ratio)
    return SeriesResult(
        value=value,
        terms_used=len(log_t),
        tail_bound=last * ratio / (1.0 - ratio),
        # log_t.max(): adding log_first rounds monotonically
        cancellation=_cancels(value, math.exp(s.log_top + log_first)),
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
        x, p, tol, max_terms, f"n_function_derivative(r={r})", r=r,
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
    s = _memo_read(_log_abs(x), p, tol, max_terms, f"log_n_derivative(r={r})", r)
    return log_first + s.log_sum


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series f(x) = sum_k coeffs[k] * x^(beta k) on the
    fractional power lattice, beta > 0 and each coeffs[k] real."""

    coeffs: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        check_real(self.beta, "beta", above=0.0)
        for c in self.coeffs:
            if isinstance(c, bool) or not isinstance(c, _REALS):
                raise ParameterError(f"coeffs must be real numbers, got {c!r} among them")

    def __call__(self, x: float) -> float:
        """f(x); NumericalRangeError where a term or the sum leaves double range."""
        try:
            y = check_real(x, "x", at_least=0.0) ** self.beta
        except OverflowError:  # x^beta beyond double range, so is every term past the first
            y = math.inf
        if not self.coeffs:
            return 0.0
        try:
            coeffs = np.array(self.coeffs, dtype=float)
        except OverflowError:  # an int coefficient past double range is an infinite term
            coeffs = np.array([math.inf])
        return _lattice_sum(coeffs, y, ("PowerSeries at x = {}: {}", x, _BEYOND))[0]

    def shifted_up(self) -> "PowerSeries":
        """Multiply by x^beta: shift every coefficient up one lattice slot."""
        return PowerSeries((0.0,) + self.coeffs, self.beta)


def deformed_derivative(f: PowerSeries, p: DeformationParams) -> PowerSeries:
    """Apply D with D x^(beta n) = [n] x^(beta (n-1)) coefficient-wise."""
    if f.beta != p.beta:
        raise ParameterError(
            f"series lattice beta={f.beta} does not match parameters beta={p.beta}"
        )
    b = _brackets(p, max(len(f.coeffs) - 1, 0))[1:].tolist()
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
