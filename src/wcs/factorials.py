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

The logs are kept in one table per parameter triple, as three float64
numpy columns (log [n], the running sum of the alpha-ratio logs, and the
nu-dependent log-gamma) that the series kernels slice directly; callers
get read-only views, and the scalar accessors return Python floats; a
whole sequence is one slice, _brackets ([0..n], the package's only linear
brackets) or _log_factorials (log [0..n]!), bit-equal to box and
log_gen_factorial.  A new table is built to the index asked for; an
existing one grows on demand by at least 64 entries, in blocks of at most
4096, into buffers whose capacity doubles when full: each block takes its
three gamma columns in three calls of the array log-gamma, which equals
the scalar one bit for bit, and sums log [n]! in the same order as an
entry-by-entry build, so no entry depends on how the table was grown.

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

from .gammafn import LogValue, _exp_each, _log_gamma_array, log_gamma
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


class _Table:
    """Per-parameter incremental cache of bracket and factorial logs.

    log_box, log_prod (the running sum of the alpha-ratio logs) and log_tail
    are read-only float64 views of the filled part of the three rows of one
    buffer, indexed by n; entry 0 is the defined-zero bracket / empty
    product.  A full buffer is copied into one twice as large, so growth to
    n entries copies O(log n) times.  brackets is a read-only prefix of
    exp(log_box), replaced by a longer copy when a read passes its end."""

    __slots__ = ("_bufs", "log_box", "log_prod", "log_tail", "brackets")

    def __init__(self, p: DeformationParams, capacity: int = _MIN_GROWTH + 1) -> None:
        self._bufs = np.empty((3, capacity))
        self._bufs[:, 0] = -math.inf, 0.0, log_gamma(1.0 - p.alpha + p.nu)
        self.brackets = _read_only(np.empty(0))
        self._publish(1)

    def _publish(self, size: int) -> None:
        # log_box last: a reader that sees it long enough sees the others so
        box, prod, tail = (_read_only(col) for col in self._bufs[:, :size])
        self.log_prod, self.log_tail, self.log_box = prod, tail, box

    def extend(self, n: int, p: DeformationParams) -> None:
        size = len(self.log_box)
        if n < size:
            return
        if n >= self._bufs.shape[1]:
            bufs = np.empty((3, max(n + 1, 2 * self._bufs.shape[1])))
            bufs[:, :size] = self._bufs[:, :size]
            self._bufs = bufs
        box, prod, tail = self._bufs
        a, b, v = p.alpha, p.beta, p.nu
        for lo in range(size, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            bk = b * np.arange(lo, hi) + 1.0
            lg_top = _log_gamma_array(bk)
            lg_bot = _log_gamma_array(bk - a)
            tail[lo:hi] = _log_gamma_array(bk - a + v)
            box[lo:hi] = lg_top - lg_bot + tail[lo:hi] - tail[lo - 1 : hi - 1]
            # log_prod[k] = (log_prod[k-1] + top_k) - bot_k, left to right:
            # accumulate adds in order, and s + (-bot) rounds as s - bot
            steps = np.empty(2 * (hi - lo) + 1)
            steps[0] = prod[lo - 1]
            steps[1::2] = lg_top
            steps[2::2] = -lg_bot
            prod[lo:hi] = np.add.accumulate(steps)[2::2]
        self._publish(n + 1)

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


def _read_only(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False
    return col


_TABLES: dict[DeformationParams, _Table] = {}
# held while a table is made, grown or evicted; lookups and reads of
# published columns take no lock
_LOCK = threading.Lock()


def _table(p: DeformationParams, n: int) -> _Table:
    """p's table, holding entries 0..n at least.  A new table is built to n;
    an existing one grows by at least _MIN_GROWTH entries."""
    tab = _TABLES.get(p)
    if tab is None or n >= len(tab.log_box):
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
    """log [0]!, ..., log [n]!, summed in log_gen_factorial's order."""
    tab = _table(p, n)
    return tab.log_prod[: n + 1] + tab.log_tail[: n + 1] - tab.log_tail[0]


def log_gen_factorial(n: int, p: DeformationParams) -> float:
    """log of [n]! via the telescoped closed form; 0 for n = 0."""
    n = check_count(n, "n")
    tab = _table(p, n)
    return tab.log_prod.item(n) + tab.log_tail.item(n) - tab.log_tail.item(0)


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
