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
log_gen_factorial.  A new table is built to the index asked for; an
existing one grows on demand by at least 64 entries, in blocks of at most
4096, into buffers whose capacity doubles when full; one past
_MAX_ENTRIES = 2^26 entries is refused before anything is allocated.
Entries below k0, where some gamma argument is below
gammafn._SERIES_MIN_ARG (13; k0 is about 12 / beta), take three gamma
columns from the array Lanczos log-gamma, as the scalar one would.  From k0 on, each block is a few numpy
passes of the gamma-ratio series, log [k] within about an ulp and log [n]!
written as closed-form Stirling terms plus a running sum of O(1/k)
corrections.  Every entry is an elementwise function of its index, and the
running sums add in index order across blocks, so no entry depends on how
the table was grown.

A table also keeps the linear brackets [0..m], exp of the log column by
box's exp, grown lazily (at least doubling) to the longest _brackets read,
which is a slice of them, so it hands back the bits a fresh computation
would.  At most 64 tables are cached; a new triple beyond that evicts the
oldest-inserted one, and _clear_tables (behind series.clear_caches) drops
them all.  Making, growing and evicting tables takes a lock, so threads may
share them.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import NumericalRangeError
from .gammafn import (
    _SERIES_MIN_ARG,
    LogValue,
    _exp_each,
    _log_gamma_array,
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


_BLOCK = 4096  # entries per array extension; bounds the temporaries' memory
# a table grows by at least this many entries: an array block of 64 costs
# about as much as one of a single entry, and loops ask for n, n + 1, ...
_MIN_GROWTH = 64
_MAX_TABLES = 64
# the most entries a table may hold: 1 GB at two float64 columns
_MAX_ENTRIES = 2**26


class _Table:
    """Per-parameter incremental cache of bracket and factorial logs.

    log_box and log_fact are read-only float64 views of the filled part of
    the two rows of one buffer, indexed by n; entry 0 is the defined-zero
    bracket / empty product.  _run is the running sum at the last filled
    entry, which the next block continues from: below the first series
    entry k0, the sum of the alpha-ratio logs; from k0 on, the sum of r(k).
    A full buffer is copied into one twice as large (at most _MAX_ENTRIES
    wide), so growth to n entries copies O(log n) times.
    brackets is a read-only prefix of exp(log_box), replaced by a longer
    copy when a read passes its end."""

    __slots__ = (
        "_bufs", "_run", "_tail0", "_k0", "_c_alpha", "_c_beta", "log_box", "log_fact",
        "brackets",
    )

    def __init__(self, p: DeformationParams, capacity: int = _MIN_GROWTH + 1) -> None:
        self._bufs = np.empty((2, capacity))
        self._bufs[:, 0] = -math.inf, 0.0
        self._run = 0.0
        self._tail0 = log_gamma(1.0 - p.alpha + p.nu)
        self._k0 = _first_series_entry(p)
        self._c_alpha = _ratio_coefficients(p.alpha)
        self._c_beta = _ratio_coefficients(p.beta)
        self.brackets = _read_only(np.empty(0))
        self._publish(1)

    def _publish(self, size: int) -> None:
        # log_box last: a reader that sees it long enough sees log_fact so
        box, fact = (_read_only(col) for col in self._bufs[:, :size])
        self.log_fact, self.log_box = fact, box

    def extend(self, n: int, p: DeformationParams) -> None:
        size = len(self.log_box)
        if n < size:
            return
        if n >= self._bufs.shape[1]:
            bufs = np.empty((2, max(n + 1, min(2 * self._bufs.shape[1], _MAX_ENTRIES))))
            bufs[:, :size] = self._bufs[:, :size]
            self._bufs = bufs
        for lo in range(size, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            mid = min(max(lo, self._k0), hi)
            if lo < mid:
                self._lanczos_entries(lo, mid, p)
            if mid < hi:
                self._series_entries(mid, hi, p)
        self._publish(n + 1)

    def _lanczos_entries(self, lo: int, hi: int, p: DeformationParams) -> None:
        """Entries lo..hi-1 (all below k0) from three log-gamma columns:
        log [k] = lg(bk+1) - lg(bk+1-a) + lg(bk+1-a+v) - lg(b(k-1)+1-a+v)."""
        box, fact = self._bufs
        a, b, v = p.alpha, p.beta, p.nu
        bk = b * np.arange(lo - 1, hi) + 1.0  # from the entry before, for its tail
        lg_top = _log_gamma_array(bk[1:])
        lg_bot = _log_gamma_array(bk[1:] - a)
        if lo == 1:
            tail = np.append(self._tail0, _log_gamma_array(bk[1:] - a + v))
        else:
            tail = _log_gamma_array(bk - a + v)
        box[lo:hi] = lg_top - lg_bot + tail[1:] - tail[:-1]
        # run[k] = (run[k-1] + top_k) - bot_k, left to right: accumulate
        # adds in order, and s + (-bot) rounds as s - bot
        steps = np.empty(2 * (hi - lo) + 1)
        steps[0] = self._run
        steps[1::2] = lg_top
        steps[2::2] = -lg_bot
        run = np.add.accumulate(steps)[2::2]
        self._run = run.item(-1)
        fact[lo:hi] = run + tail[1:] - self._tail0

    def _series_entries(self, lo: int, hi: int, p: DeformationParams) -> None:
        """Entries lo..hi-1 (all from k0 on) from the ratio series, with
        D(w; d) = log Gamma(w + d) - log Gamma(w) = d log w + rho(w; d):

            log [k]  = D(bk+1-a; a) + D(b(k-1)+1-a+v; b)
            log [n]! = a (n log b + lg(n+1)) + sum_(k<=n) r(k)
                       + lg(bn+1-a+v) - lg(1-a+v)

        with r(k) = D(bk+1-a; a) - a log(bk) = O(1/k), so the running sum
        adds only small numbers."""
        box, fact = self._bufs
        a, b, v = p.alpha, p.beta, p.nu
        k = np.arange(lo - 1, hi, dtype=float)  # from the entry before
        bk = b * k
        w = bk + 1.0 - a
        tail_arg = w + v  # bk+1-a+v; at k-1 it is the second ratio's argument
        rho = _ratio_series(w[1:], a, self._c_alpha)
        box[lo:hi] = (a * np.log(w[1:]) + rho) + (
            b * np.log(tail_arg[:-1]) + _ratio_series(tail_arg[:-1], b, self._c_beta)
        )
        steps = np.empty(hi - lo + 1)
        steps[0] = self._run if lo > self._k0 else self._r_sum(p)
        steps[1:] = _r(bk[1:], a, rho)
        np.add.accumulate(steps, out=steps)
        self._run = steps.item(-1)
        closed = a * _stirling_log_gamma(k[1:] + 1.0, b)  # a (n log b + lg(n+1))
        fact[lo:hi] = closed + steps[1:] + (_stirling_log_gamma(tail_arg[1:]) - self._tail0)

    def _r_sum(self, p: DeformationParams) -> float:
        """sum_(k<k0) r(k), from the ratio series shifted up where
        bk+1-a < z0, not from the Lanczos entries' log [k0-1]!: that carries
        the rounding of 2 k0 log-gamma values of up to log Gamma(13) = 20,
        which would stay in every later entry."""
        a, b = p.alpha, p.beta
        total = 0.0
        for lo in range(1, self._k0, _BLOCK):
            bk = b * np.arange(lo, min(lo + _BLOCK, self._k0))
            r = _r(bk, a, _ratio_series(bk + 1.0 - a, a, self._c_alpha))
            total = np.add.accumulate(np.append(total, r)).item(-1)
        return total

    def extend_brackets(self, n: int) -> None:
        """Make brackets cover [n] (n < len(log_box)), at least doubling it
        while log_box allows, by box's exp."""
        size = len(self.brackets)
        if n < size:
            return
        lin = np.empty(max(n + 1, min(2 * size, len(self.log_box))))
        lin[:size] = self.brackets
        lin[size:] = _exp_each(self.log_box[size : len(lin)])
        self.brackets = _read_only(lin)


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
# held while a table is made, grown or evicted; lookups and reads of
# published columns take no lock
_LOCK = threading.Lock()


def _table(p: DeformationParams, n: int) -> _Table:
    """p's table, holding entries 0..n at least.  A new table is built to n;
    an existing one grows by at least _MIN_GROWTH entries, up to
    _MAX_ENTRIES."""
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
                tab = _TABLES[p] = _Table(p, n + 1)
                tab.extend(n, p)
            elif n >= len(tab.log_box):
                tab.extend(max(n, len(tab.log_box) + _MIN_GROWTH - 1), p)
    return tab


def _clear_tables() -> None:
    with _LOCK:
        _TABLES.clear()


def log_box(n: int, p: DeformationParams) -> float:
    """log [n]; -inf for n = 0."""
    n = check_count(n, "n")
    return _table(p, n).log_box.item(n)


def box(n: int, p: DeformationParams) -> float:
    """The bracket [n] on linear scale.  [0] = 0."""
    n = check_count(n, "n")
    return math.exp(_table(p, n).log_box.item(n))


def _brackets(p: DeformationParams, n: int) -> np.ndarray:
    """[0], ..., [n] on the linear scale, through box's exp, not numpy's:
    a read-only slice of the table's linear prefix."""
    tab = _table(p, n)
    if n >= len(tab.brackets):
        with _LOCK:
            tab.extend_brackets(n)
    return tab.brackets[: n + 1]


def _log_factorials(p: DeformationParams, n: int) -> np.ndarray:
    """log [0]!, ..., log [n]!: a read-only slice of the table's column."""
    return _table(p, n).log_fact[: n + 1]


def log_gen_factorial(n: int, p: DeformationParams) -> float:
    """log of [n]! via the telescoped closed form; 0 for n = 0."""
    n = check_count(n, "n")
    return _table(p, n).log_fact.item(n)


def gen_factorial(n: int, p: DeformationParams) -> LogValue:
    """[n]! as a log-scale value (always positive on the domain)."""
    return LogValue.from_log(log_gen_factorial(n, p))


def log_gen_double_factorial(m: int, p: DeformationParams) -> float:
    """log of [m]!! = log([m][m-2][m-4]...), stopping at [2] or [1].

    The even case [2n]!! = [2n][2n-2]...[2] is the normalization that
    appears in the ground-state expansion; m = 0 gives the empty product.
    """
    m = check_count(m, "m")
    # 0 + log [m] + log [m-2] + ... left to right: np.add.reduce sums
    # pairwise, and the builtin sum compensates from Python 3.12
    return np.add.accumulate(np.append(0.0, _table(p, m).log_box[m:0:-2])).item(-1)


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
    return e * n * (math.log(p.beta * n) - 1.0)
