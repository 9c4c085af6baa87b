"""Double-exponential (Takahasi-Mori) trapezoid rules for half-line
integrals of positive integrands, supplied as their logarithms.

The map t = c exp(s - e^-s) makes both ends of the integral over (0, inf)
decay double-exponentially in s; the sums run in log space, scaled by each
row's maximum.  A coarse scan at step 1/4 in s finds where each integrand
lies within e^-40 of its peak, the trapezoid rule covers that window, and
the difference between steps h and 2h is the error estimate.

integrate_zero_inf_de  one integral per abscissa x, a whole array of x per
                       call, each row with its own scale c, window and step.
integrate_shared_de    several integrands of one variable on one lattice of
                       step 1/32 in s, each node evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalRangeError, ParameterError
from .params import check_real

__all__ = [
    "LogQuadResult",
    "integrate_zero_inf_de",
    "integrate_shared_de",
]

# The coarse scan starts on _DE_SCAN and widens by doubling while a row is
# not negligible at its ends, up to _DE_LIMITS in s for the kernel (s = -24
# is log t ~ -2.6e10 below the scale c; s = 1536 holds a plateau 1150 long
# on the linear side, as the one-minus-beta weight has at nu = beta and
# x = 1e-250) and _SHARED_LIMITS for the unscaled shared lattice, which
# stays where t is a normal double: from s = -6.5 (t ~ 2e-292) to
# s = 709.75.  The window is where the log-integrand lies within
# _DE_DROP of its maximum (e^-40 ~ 4e-18 of the peak); _DE_POINTS
# trapezoid intervals then cover it, few enough that most rows meet a
# 1e-11 target at that first step.  Rows whose h vs 2h estimate misses the
# tolerance are refined by halving h until it is _DE_FINEST, but at least
# _DE_LEVELS[0] and at most _DE_LEVELS[1] times: a scaled row's window can
# be far wider than an unscaled one and still hold an edge as sharp,
# e^(-t^(1/b)) at beta ~ 0.01.  So a window up to 96 wide in s reaches
# _DE_FINEST, and a wider one stops at h = width / (_DE_POINTS 2^9); a
# window under 3 wide may still halve 4 times.  A peak much narrower than the
# scan step _DE_STEP is left under-resolved by that budget and raises
# ConvergenceError.
_DE_SCAN = (-4.0, 4.0)
_DE_STEP = 0.25
_DE_LIMITS = (-24.0, 1536.0)
_SHARED_LIMITS = (-6.5, 709.75)
# the relative target of every row of the shared lattice, and the halvings
# of its scan step, 1/4, that it may take: down to h = 1/32
_SHARED_RTOL = 1e-9
_SHARED_LEVELS = 3
_DE_DROP = 40.0
_DE_POINTS = 192
_DE_LEVELS = (4, 9)
_DE_FINEST = 1.0 / 1024
# rows per block: a level of the shared lattice up to h = 1/16 usually adds
# 30 to 80 nodes, so it is one block, and the working set stays about
# 750 kB whatever the number of rows
_DE_ROWS = 96
# a log-integrand of size G carries a rounding error of a few ulp of G, which
# floors the relative accuracy any rule can reach on that row
_DE_NOISE = 16.0 * 2.0**-52


@dataclass
class LogQuadResult:
    log_value: np.ndarray  # shape (m,) natural log of each row's integral
    rel_error: np.ndarray  # shape (m,) estimated relative error per row
    points: int  # log-integrand evaluations: over all rows, or shared nodes


def _de_log_integrand(log_f, s: np.ndarray, x: np.ndarray, log_c) -> np.ndarray:
    """log of f(t) dt/ds at log t = log_c + s - e^-s, shape (len(x), s.shape[-1]).

    s is a fresh array of shape (k,) or (m, k); it is overwritten by s - e^-s
    so that only two temporaries of its size live beside log_f's own.
    log_c is a column of shape (m, 1)."""
    e = np.negative(s)
    np.exp(e, out=e)
    log_t = np.subtract(s, e, out=s)
    jac = np.log1p(e, out=e)
    log_t = np.add(log_t, log_c, out=log_t if log_t.ndim == 2 else None)
    jac = np.add(jac, log_t, out=jac if jac.shape == log_t.shape else None)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = np.asarray(log_f(log_t, x), dtype=float)
    g = np.add(g, jac, out=jac)  # log t has a row per x, so jac is (m, k)
    if not (g < np.inf).all():  # NaN or +inf
        raise NumericalRangeError("log-integrand returned NaN or +inf")
    return g


def _de_scan_grid(lo: float, hi: float) -> np.ndarray:
    return lo + _DE_STEP * np.arange(round((hi - lo) / _DE_STEP) + 1)


def _de_window(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index range where g lies within _DE_DROP of the row
    maximum, padded by one point on each side."""
    keep = g >= g.max(axis=1, keepdims=True) - _DE_DROP
    n = g.shape[1]
    first = np.maximum(keep.argmax(axis=1) - 1, 0)
    last = np.minimum(n - keep[:, ::-1].argmax(axis=1), n - 1)
    return first, last


def _de_scan(g_at, limits: tuple[float, float], open_below: bool = False):
    """Coarse scan: g_at(s, rows) on the grid of step _DE_STEP over _DE_SCAN,
    widened by doubling towards limits while some row is not negligible at
    an end; only such rows are evaluated on the new nodes beyond that end,
    and the others read -inf there, so a row's values and points do not
    depend on the rows scanned with it.  A row still not negligible at a
    limit raises ConvergenceError, unless open_below lets it stay so at the
    lower one.  Returns the final grid, the values on it and the points
    evaluated."""
    lo, hi = _DE_SCAN
    g = g_at(_de_scan_grid(lo, hi), slice(None))
    points = g.size
    while True:
        top = g.max(axis=1)
        if not np.all(np.isfinite(top)):
            raise NumericalRangeError("log-integrand is -inf on the whole scan")
        low = g[:, 0] > top - _DE_DROP
        high = g[:, -1] > top - _DE_DROP
        new_lo = max(2.0 * lo, limits[0]) if low.any() else lo
        new_hi = min(2.0 * hi, limits[1]) if high.any() else hi
        if (new_lo, new_hi) == (lo, hi):
            if high.any() or (low.any() and not open_below):
                raise ConvergenceError(
                    "double-exponential quadrature: integrand not negligible at the "
                    f"scan limit s = {hi if high.any() else lo:g}"
                )
            return _de_scan_grid(lo, hi), g, points
        parts = []
        sides = ((_de_scan_grid(new_lo, lo)[:-1], low), (_de_scan_grid(hi, new_hi)[1:], high))
        for new, ends in sides:
            part = np.full((len(g), len(new)), -np.inf)
            if len(new):  # so some row needs it
                rows = np.flatnonzero(ends)
                part[rows] = g_at(new, rows)
                points += len(rows) * len(new)
            parts.append(part)
        g = np.concatenate([parts[0], g, parts[1]], axis=1)
        lo, hi = new_lo, new_hi


def integrate_zero_inf_de(log_f, x, rtol: float = 1e-11, log_scale=None) -> LogQuadResult:
    """Integrate exp(log_f(log t, x)) over t in (0, inf) for every x at once.

    log_f receives log t as an array of shape (m, k) and x as a column of
    shape (m, 1), and returns the log of a positive integrand, broadcast to
    (m, k); -inf marks a zero.  It may overwrite log t.  log_scale, one
    value per x (None: all 0), shifts each row's map to log t = log_scale +
    s - e^-s: a row whose integrand has a sharp edge far below t = 1 puts
    it there, where the map is linear, instead of on the compressed side.
    Row i is accepted when its error estimate is at most rtol * I_i, with
    rtol floored at the rounding error of a log-integrand of that row's
    size, and its rel_error is the h vs h/2 estimate or that floor,
    whichever is larger.
    Raises ConvergenceError when a row misses its tolerance after the last
    refinement (as a peak much narrower than the coarse scan step does) or
    is not negligible at the scan limits, and NumericalRangeError for a NaN
    or +inf log-integrand."""
    rtol = check_real(rtol, "rtol", above=0.0)
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    if not len(x):
        raise ParameterError("need at least one abscissa")
    log_scale = np.zeros_like(x) if log_scale is None else log_scale
    log_scale = np.asarray(log_scale, dtype=float).reshape(-1, 1)
    if log_scale.shape != x.shape:
        raise ParameterError(f"log_scale needs one value per abscissa, got {len(log_scale)}")
    blocks = [
        _de_block(log_f, x[i:i + _DE_ROWS], log_scale[i:i + _DE_ROWS], rtol)
        for i in range(0, len(x), _DE_ROWS)
    ]
    return LogQuadResult(
        log_value=np.concatenate([blk.log_value for blk in blocks]),
        rel_error=np.concatenate([blk.rel_error for blk in blocks]),
        points=sum(blk.points for blk in blocks),
    )


def _halve(total, top, h, gm):
    """The trapezoid sums at step h, from those at 2h (total, in units of
    exp(top)) and the log-integrand gm at the new midpoints, which it
    overwrites: (sums, their differences from the sums at 2h, the new top)."""
    # rescale the rows whose midpoints rise above the previous maximum
    new_top = np.maximum(top, gm.max(axis=1))
    shrink = np.exp(top - new_top)
    f = np.exp(np.subtract(gm, new_top[:, None], out=gm), out=gm)
    refined = 0.5 * total * shrink + h * f.sum(axis=1)
    return refined, np.abs(refined - total * shrink), new_top


def _de_block(log_f, x: np.ndarray, log_c: np.ndarray, rtol: float) -> LogQuadResult:
    def g_at(s, rows):
        return _de_log_integrand(log_f, s, x[rows], log_c[rows])

    s, g, points = _de_scan(g_at, _DE_LIMITS)
    first, last = _de_window(g)
    a = s[first]
    h = (s[last] - a) / _DE_POINTS
    del s, g, first, last  # the scan can be wider than the trapezoid grid
    nodes = a[:, None] + h[:, None] * np.arange(_DE_POINTS + 1)
    g = _de_log_integrand(log_f, nodes, x, log_c)
    points += g.size

    top = g.max(axis=1)
    f = np.exp(np.subtract(g, top[:, None], out=g), out=g)
    ends = 0.5 * (f[:, 0] + f[:, -1])
    total = h * (f.sum(axis=1) - ends)
    err = np.abs(total - 2.0 * h * (f[:, ::2].sum(axis=1) - ends))
    floor = _DE_NOISE * (np.abs(top) + _DE_DROP)
    rtol_row = np.maximum(rtol, floor)
    bad = err > rtol_row * total
    levels = np.clip(np.ceil(np.log2(h / _DE_FINEST)), *_DE_LEVELS)
    level = 0
    while bad.any():
        if (bad & (level >= levels)).any():
            i = int(np.argmax(bad & (level >= levels)))
            raise ConvergenceError(
                f"double-exponential quadrature: relative error {err[i] / total[i]:.3g} "
                f"above target {rtol_row[i]:.3g} at x = {x[i, 0]:.6g} with "
                f"{_DE_POINTS << level} intervals"
            )
        rows = np.flatnonzero(bad)
        h[rows] *= 0.5
        k = _DE_POINTS << level
        # a deep level takes the rows a few at a time, so that no call holds
        # more points than a block's first trapezoid grid
        for part in np.array_split(rows, -(-len(rows) * k // (_DE_ROWS * _DE_POINTS))):
            mids = a[part, None] + h[part, None] * (2.0 * np.arange(k) + 1.0)
            gm = _de_log_integrand(log_f, mids, x[part], log_c[part])
            points += gm.size
            total[part], err[part], top[part] = _halve(total[part], top[part], h[part], gm)
        bad = err > rtol_row * total
        level += 1
    # the h vs h/2 difference alone understates a row whose error is rounding
    rel_error = np.maximum(err / total, floor)
    return LogQuadResult(log_value=top + np.log(total), rel_error=rel_error, points=points)


def integrate_shared_de(log_f, low_power: float) -> LogQuadResult:
    """Integrate exp(log_f(log t)[i]) over t in (0, inf) for every row i,
    all rows on one node lattice.

    log_f receives the log t of new nodes only, shape (k,), and returns
    each row's log-integrand there, shape (m, k); -inf marks a zero.  The
    nodes are s = j/32 on t = exp(s - e^-s), which is a normal double for
    s in [-6.5, 709.75].  The coarse scan takes every eighth node and finds
    each row's window as the kernel does, but measures the drop in
    d(log t), the measure in which a power-law tail's value and its mass
    fall alike; the rows share the union of the windows.  The trapezoid sum
    over it at the scan step, 1/4, is halved while some row's h vs 2h
    difference is above _SHARED_RTOL * I_i (floored at the rounding error
    of the row's size), at most _SHARED_LEVELS times, to h = 1/32; each
    halving evaluates only the new midpoints, so no node is evaluated
    twice.  A row still above its target at h = 1/32 raises
    ConvergenceError, and so does one not negligible at the top of the
    lattice.

    low_power is the smallest p with f_i(t) t ~ t^p as t -> 0, or a lower
    bound on it, which can only enlarge the estimated mass below the
    window.  That mass, bounded by the power law from the window's lowest
    node, counts in the error estimate: it lets a row whose window would
    end below the lattice stop at s = -6.5.  Where t^p does not fall below
    _SHARED_RTOL there, NumericalRangeError is raised before any
    evaluation.  points counts the nodes evaluated."""
    low_power = check_real(low_power, "low_power")
    lowest = _SHARED_LIMITS[0] - math.exp(-_SHARED_LIMITS[0])
    if low_power * lowest > math.log(_SHARED_RTOL):
        raise NumericalRangeError(
            f"the integrand falls like t^{low_power:.4g} as t -> 0, too slowly to drop "
            f"below {_SHARED_RTOL:g} of its mass above t = {math.exp(lowest):.3g}, the "
            f"lowest node in double range; this needs an exponent of at least "
            f"{math.log(_SHARED_RTOL) / lowest:.4g}"
        )

    def g_at(s: np.ndarray) -> np.ndarray:
        # each row's log-integrand in d(log t)
        log_t = s - np.exp(-s)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = np.asarray(log_f(log_t), dtype=float) + log_t
        if not (g < np.inf).all():  # NaN or +inf
            raise NumericalRangeError("log-integrand returned NaN or +inf")
        return g

    s, g, _ = _de_scan(lambda s, rows: g_at(s)[rows], _SHARED_LIMITS, open_below=True)
    points = len(s)
    first, last = _de_window(g)
    s = s[first.min():last.max() + 1]
    g = g[:, first.min():last.max() + 1]
    below = g[:, 0] - math.log(low_power)  # log of the mass below the window
    # the sums are in ds: d(log t) = (1 + e^-s) ds
    g = g + np.log1p(np.exp(-s))
    top = g.max(axis=1)
    f = np.exp(g - top[:, None])
    total = _DE_STEP * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))
    n = len(s) - 1
    for level in range(1, _SHARED_LEVELS + 1):
        h = _DE_STEP / 2**level
        mids = s[0] + h * (2.0 * np.arange(n) + 1.0)
        total, err, top = _halve(total, top, h, g_at(mids) + np.log1p(np.exp(-mids)))
        points += n
        n *= 2
        err += np.exp(below - top)
        floor = _DE_NOISE * (np.abs(top) + _DE_DROP)
        bad = err > np.maximum(_SHARED_RTOL, floor) * total
        if not bad.any():
            break
    else:
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"double-exponential quadrature: relative error {err[i] / total[i]:.3g} "
            f"above target {max(_SHARED_RTOL, floor[i]):.3g} in row {i} at h = {h:g}"
        )
    rel_error = np.maximum(err / total, floor)
    return LogQuadResult(log_value=top + np.log(total), rel_error=rel_error, points=points)
