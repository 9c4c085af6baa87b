"""Deformed integer brackets and their factorials.

The bracket of n (written [n] below) generalizes the integer n through
three parameters:

    [n] = Gamma(beta*n + 1) / Gamma(beta*n + 1 - alpha)
        * Gamma(beta*n + 1 - alpha + nu) / Gamma(beta*(n-1) + 1 - alpha + nu)

with [0] = 0 by definition.  Its factorial [n]! = [n][n-1]...[1] collapses,
after telescoping the nu-dependent ratios, to the closed form

    [n]! = ( prod_{i=1..n} Gamma(beta*i + 1) / Gamma(beta*i + 1 - alpha) )
         * Gamma(beta*n + 1 - alpha + nu) / Gamma(1 - alpha + nu)

which is what this module evaluates, entirely in log space.  At
(alpha, beta, nu) = (0, 1, 0) everything reduces to ordinary integers and
factorials; (0, beta, nu) gives the Gamma(beta*n + 1 + nu)/Gamma(1 + nu)
family and (1, beta, nu) the beta^n n! Gamma(beta*n + nu)/Gamma(nu) family.

All brackets are strictly positive for n >= 1 on the admissible parameter
domain, so factorials carry sign +1 and a log magnitude.

The logs are kept in one table per parameter triple, as float64 numpy
columns (log [n] and log [n]!) that the series kernels slice directly;
callers get read-only views, and the scalar accessors return Python floats;
a whole sequence is one slice, _brackets ([0..n], the package's only linear
brackets) or _log_factorials (log [0..n]!), bit-equal to box and
log_gen_factorial.  A table is built whole, in blocks of at most 4096
entries, and its columns are never written after: a new triple's table is
built to the index asked for, and a read past a table's end replaces it
with a new one at least twice as long, so a loop over n = 1, 2, ...
builds O(log n) tables.  One past _MAX_ENTRIES = 2^26 entries is refused
before anything is allocated.  Each block is a few numpy passes of the
gamma-ratio series, log [k] within about an ulp: shifted up where a gamma
argument is below gammafn._SERIES_MIN_ARG (13), as it is at entries below
k0, about 12 / beta.  There log [n]! is the running sum of log [k], each
sum rounded once; from k0 on, closed-form Stirling terms plus a running
sum of O(1/k) corrections.  Every entry is an elementwise function of its
index, and the running sums add in index order across blocks, so a longer
table repeats the shorter one's bits.

A table holds log [n] and log [n]! only.  _log_double_run forms
log [m]!!, the running sum of log [2], log [4], ... from 0 (or of log [1],
log [3], ...) in index order, off a slice of the log column; _brackets
applies box's exp to one.  Both work afresh on each call.  The scalar
accessors read a built table through read-only memoryviews of its two
columns, one index each; an index past a view's end raises IndexError,
and that read, like any argument that is not a plain int >= 0, takes the
checked path that builds or replaces the table.  They and _table find the
table by identity first: _LAST is the (p, table) pair _table returned
last, one tuple, and a read with that same p object takes its table
without hashing p; any other p takes one dict lookup.  A table's columns
go with it.  At most 64 tables are cached; a new triple beyond that
evicts the oldest-inserted one, and _clear_tables (behind
series.clear_caches) drops them all and forgets the pair.  Building,
replacing and evicting tables takes a lock; readers take none and only
ever see whole columns, and a pair read from _LAST is a matching one, so
threads may share them: nothing writes a table after it is built.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np

from .errors import NumericalRangeError
from .gammafn import (
    _SERIES_MIN_ARG,
    LogValue,
    _exp_each,
    _ratio_coefficients,
    _ratio_series,
    _stirling_log_gamma,
    log_gamma,
)
from .params import DeformationParams, check_count

__all__ = [
    "box",
    "log_box",
    "gen_factorial",
    "log_gen_factorial",
    "gen_double_factorial",
    "log_gen_double_factorial",
    "log_factorial_asymptotic",
]


_BLOCK = 4096  # entries per array block; bounds the temporaries' memory
_MAX_TABLES = 64
# the most entries a table may hold: 1 GB at two float64 columns
_MAX_ENTRIES = 2**26
# above |log [k]|: each of its two ratios log Gamma(w + d) - log Gamma(w),
# 0 <= d <= 1, is at most 745 in size, that of log Gamma at a double w < 2,
# or d log(w + d) <= 710 at w >= 2
_LOG_BOX_BOUND = 2.0**12


class _Table:
    """Bracket and factorial logs of one parameter triple, entries 0..n.

    log_box and log_fact are read-only float64 columns indexed by n, built
    whole by the constructor and never written after; entry 0 is the
    defined-zero bracket / empty product.  A longer table is a new one.
    box_view and fact_view are read-only memoryviews of them, for the
    scalar accessors' one-index reads.  Every attribute is set once, here."""

    __slots__ = ("log_box", "log_fact", "box_view", "fact_view")

    def __init__(self, p: DeformationParams, n: int) -> None:
        if p.beta + 1.0 - p.alpha == 0.0:  # the least bk+1-a, at alpha = 1, beta < 2^-53
            raise NumericalRangeError(f"factorial table for {p}: beta + 1 - alpha rounds to 0")
        box, fact = np.empty(n + 1), np.empty(n + 1)
        box[0], fact[0] = -math.inf, 0.0
        tail0 = log_gamma(1.0 - p.alpha + p.nu)
        k0 = min(_first_series_entry(p), n + 1)
        # below k0, log [n]! is the running sum of log [k]; where the table
        # reaches k0, r_sum is sum_(k<k0) r(k), from which the series goes
        # on: a sum of r's own small terms, not one derived from
        # log [k0-1]!, whose rounding of the larger log [k] would stay in
        # every later entry
        run = r_sum = 0.0
        for lo in range(1, k0, _BLOCK):
            hi = min(lo + _BLOCK, k0)
            k = np.arange(lo, hi, dtype=float)
            box[lo:hi], rho = _log_brackets(k, p)
            fact[lo:hi] = _rounded_once(run, box[lo:hi])
            run = fact.item(hi - 1)
            if k0 <= n:  # at a beta too small for that, (1-a)/bk may overflow
                r_sum = _running(r_sum, _r(p.beta * k, p.alpha, rho)).item(-1)
        run = r_sum  # from k0 on, the running sum of r(k)
        for lo in range(k0, n + 1, _BLOCK):
            run = _series_entries(box, fact, lo, min(lo + _BLOCK, n + 1), p, run, tail0)
        self.log_box, self.log_fact = _read_only(box), _read_only(fact)
        self.box_view, self.fact_view = memoryview(self.log_box), memoryview(self.log_fact)


def _log_brackets(k: np.ndarray, p: DeformationParams) -> tuple[np.ndarray, np.ndarray]:
    """log [k] on a float array of k >= 1, and rho(bk+1-a; a), from the
    ratio series, with D(w; d) = log Gamma(w + d) - log Gamma(w)
    = d log w + rho(w; d):

        log [k] = D(bk+1-a; a) + D(b(k-1)+1-a+v; b)"""
    a, b, v = p.alpha, p.beta, p.nu
    w = b * k + 1.0 - a
    t = b * (k - 1.0) + 1.0 - a + v
    rho = _ratio_series(w, a, _ratio_coefficients(a))
    return (a * np.log(w) + rho) + (b * np.log(t) + _ratio_series(t, b, _ratio_coefficients(b))), rho


def _running(run: float, steps: np.ndarray) -> np.ndarray:
    """run + steps[0], run + steps[0] + steps[1], ..., added left to right."""
    return np.add.accumulate(np.append(run, steps))[1:]


def _rounded_once(run: float, steps: np.ndarray) -> np.ndarray:
    """run + steps[0], run + steps[0] + steps[1], ...: each exact sum
    rounded once, give or take 2^-82 sigma, for at most _BLOCK steps below
    _LOG_BOX_BOUND in size.  sigma, a power of two at least twice every
    partial sum's size, splits each term into a multiple of 2^-53 sigma,
    whose running sums are exact, and a remainder below 2^-53 sigma (Rump,
    Ogita and Oishi's ExtractVector, as in series._exact_sum).  sigma
    depends on run alone, so a sum has the same bits in a table of any
    length."""
    x = np.append(run, steps)
    sigma = math.ldexp(1.0, math.frexp(abs(run) + _BLOCK * _LOG_BOX_BOUND)[1] + 1)
    high = x + sigma
    high -= sigma
    return (np.add.accumulate(high) + np.add.accumulate(x - high))[1:]


def _series_entries(box: np.ndarray, fact: np.ndarray, lo: int, hi: int,
                    p: DeformationParams, run: float, tail0: float) -> float:
    """Entries lo..hi-1 (all from k0 on): log [k] from _log_brackets, and

        log [n]! = a (n log b + lg(n+1)) + sum_(k<=n) r(k)
                   + lg(bn+1-a+v) - lg(1-a+v)

    with r(k) = D(bk+1-a; a) - a log(bk) = O(1/k), so the running sum run,
    continued here and returned at hi-1, adds only small numbers.  The two
    large parts are added by TwoSum, and their sum's rounding error goes in
    with the small ones, so the entry is rounded once fewer."""
    a, b, v = p.alpha, p.beta, p.nu
    k = np.arange(lo, hi, dtype=float)
    box[lo:hi], rho = _log_brackets(k, p)
    sums = _running(run, _r(b * k, a, rho))
    closed = a * _stirling_log_gamma(k + 1.0, b)  # a (n log b + lg(n+1))
    tail = _stirling_log_gamma(b * k + 1.0 - a + v)
    big = closed + tail
    t = big - closed
    fact[lo:hi] = big + (((closed - (big - t)) + (tail - t)) + (sums - tail0))
    return sums.item(-1)


def _r(bk: np.ndarray, a: float, rho: np.ndarray) -> np.ndarray:
    """r(k) = D(bk+1-a; a) - a log(bk) from rho = rho(bk+1-a; a)."""
    return a * np.log1p((1.0 - a) / bk) + rho


def _first_series_entry(p: DeformationParams) -> int:
    """k0, the first entry whose gamma arguments, bk+1-a and b(k-1)+1-a+v
    rounded as the table rounds them, are both at least _SERIES_MIN_ARG.
    Both grow with k, so every later entry's are too."""
    a, b, v = p.alpha, p.beta, p.nu
    z0 = _SERIES_MIN_ARG
    estimate = max(z0 - 1.0 + a, z0 - 1.0 + a - v + b) / b
    if not estimate < 2.0**53:  # no table reaches it, and k += 1 would stall
        return 2**53
    k = max(1, math.floor(estimate) - 2)
    while not (b * k + 1.0 - a >= z0 and b * (k - 1) + 1.0 - a + v >= z0):
        k += 1
    return k


def _read_only(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False
    return col


_TABLES: dict[DeformationParams, _Table] = {}
# the (p, table) pair _table returned last, one tuple so that a reader gets
# a matching pair: a hit on the same p object needs no hash of p.  Its
# table may since have been evicted or replaced; its bits are the same
_LAST: tuple = (None, None)
# held while a table is built, replaced or evicted; lookups and reads of
# built columns take no lock
_LOCK = threading.Lock()


def _table(p: DeformationParams, n: int) -> _Table:
    """p's table, holding entries 0..n at least.  A new triple's table is
    built to n; a read past an existing table's end replaces it with one
    built to max(n, twice its length), below _MAX_ENTRIES."""
    global _LAST
    last_p, tab = _LAST
    if p is not last_p:
        tab = _TABLES.get(p)
    if tab is None or n >= len(tab.log_box):
        if n >= _MAX_ENTRIES:
            raise NumericalRangeError(
                f"factorial table to n = {n} for {p}: beyond the ceiling of {_MAX_ENTRIES} entries"
            )
        with _LOCK:
            tab = _TABLES.get(p)
            if tab is None:
                if len(_TABLES) >= _MAX_TABLES:
                    del _TABLES[next(iter(_TABLES))]  # dicts keep insertion order
                tab = _TABLES[p] = _Table(p, n)
            elif n >= len(tab.log_box):
                longer = max(n, min(2 * len(tab.log_box), _MAX_ENTRIES - 1))
                tab = _TABLES[p] = _Table(p, longer)
    _LAST = p, tab
    return tab


def _clear_tables() -> None:
    global _LAST
    with _LOCK:
        _TABLES.clear()
        _LAST = None, None


def log_box(n: int, p: DeformationParams) -> float:
    """log [n]; -inf for n = 0."""
    if type(n) is int and n >= 0:  # the hit path: one read of a built table
        last_p, tab = _LAST
        if p is not last_p:
            tab = _TABLES.get(p)
        if tab is not None:
            try:
                return tab.box_view[n]
            except IndexError:  # past its end, or past an index-sized int
                pass
    n = check_count(n, "n")
    return _table(p, n).box_view[n]


def box(n: int, p: DeformationParams) -> float:
    """The bracket [n] on linear scale.  [0] = 0."""
    return math.exp(log_box(n, p))


def _brackets(p: DeformationParams, n: int) -> np.ndarray:
    """[0], ..., [n] on the linear scale, through box's exp, not numpy's:
    a read-only array of their own."""
    return _read_only(_exp_each(_table(p, n).log_box[: n + 1]))


def _log_factorials(p: DeformationParams, n: int) -> np.ndarray:
    """log [0]!, ..., log [n]!: a read-only slice of the table's column."""
    return _table(p, n).log_fact[: n + 1]


def _log_double_run(log_box: np.ndarray, parity: int, hi: int) -> np.ndarray:
    """log [parity]!!, log [parity+2]!!, ..., log [hi]!!, for parity 0 or 1
    and hi of that parity: the running sum of log [2], log [4], ... from 0,
    or of log [1], log [3], ..., added left to right by np.add.accumulate,
    in index order (np.add.reduce sums pairwise)."""
    run = log_box[parity : hi + 1 : 2].copy()
    if not parity:
        run[0] = 0.0  # log [0]!! = 0, in place of log [0] = -inf
    return np.add.accumulate(run, out=run)


def log_gen_factorial(n: int, p: DeformationParams) -> float:
    """log of [n]! via the telescoped closed form; 0 for n = 0."""
    if type(n) is int and n >= 0:  # the hit path, as log_box's
        last_p, tab = _LAST
        if p is not last_p:
            tab = _TABLES.get(p)
        if tab is not None:
            try:
                return tab.fact_view[n]
            except IndexError:
                pass
    n = check_count(n, "n")
    return _table(p, n).fact_view[n]


def gen_factorial(n: int, p: DeformationParams) -> LogValue:
    """[n]! as a log-scale value (always positive on the domain)."""
    return LogValue.from_log(log_gen_factorial(n, p))


def log_gen_double_factorial(m: int, p: DeformationParams) -> float:
    """log of [m]!! = log([m][m-2][m-4]...), stopping at [2] or [1].

    The even case [2n]!! = [2n][2n-2]...[2] is the normalization that
    appears in the ground-state expansion; m = 0 gives the empty product.
    """
    m = check_count(m, "m")
    return _log_double_run(_table(p, m).log_box, m % 2, m).item(-1)


def gen_double_factorial(m: int, p: DeformationParams) -> LogValue:
    """[m]!! as a log-scale value."""
    return LogValue.from_log(log_gen_double_factorial(m, p))


def log_factorial_asymptotic(n: int, p: DeformationParams) -> float:
    """Leading large-n behaviour of log [n]!: (alpha+beta) n (log(beta n) - 1).

    The same expression is the log of the large-n moment growth
    m_n ~ exp(-(alpha+beta) n) (beta n)^((alpha+beta) n) used by the
    moment-problem classification.
    """
    n = check_count(n, "n")
    if n == 0:
        return 0.0
    e = p.alpha + p.beta
    value = e * n * (math.log(p.beta * n) - 1.0) if n <= sys.float_info.max else math.inf
    if not math.isfinite(value):
        raise NumericalRangeError(f"log [n]! asymptote at n = {n} for {p}: past double range")
    return value
