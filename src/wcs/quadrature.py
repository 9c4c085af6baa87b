"""Adaptive Gauss-Kronrod quadrature, and a double-exponential array rule
for the weight-function integrals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a value and
an error estimate per panel from one batch of integrand evaluations; the
worst panel (by tolerance-scaled error) is bisected until the summed error
estimate meets the target.  Integrands are vectorized: they receive an
array of abscissae and may return one value per point or a row of values
(several moment orders integrated in a single adaptive pass).

Semi-infinite integrals use the rational map t = u/(1-u).

Families of half-line integrals with positive integrands, one per abscissa
x, are integrated in a single array call by the double-exponential
(Takahasi-Mori) trapezoid rule: the integrand is supplied as its logarithm,
the map t = exp(s - e^-s) makes both ends decay double-exponentially in s,
and the trapezoid sums run in log space, scaled by each row's maximum.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalRangeError, ParameterError

__all__ = [
    "QuadResult",
    "integrate_finite",
    "integrate_zero_inf",
    "LogQuadResult",
    "integrate_zero_inf_de",
]

# 15-point Kronrod abscissae on [-1, 1] (positive half) with the embedded
# 7-point Gauss rule on the odd-indexed nodes; published 33-digit values
# (QUADPACK qk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: symmetric reflection, center once
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # ascending, 15 nodes
_W_KRON = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


_TINY = np.finfo(float).tiny


@dataclass
class QuadResult:
    value: np.ndarray  # shape (m,)
    error: np.ndarray  # shape (m,) summed panel error estimates
    panels: int

    @property
    def scalar(self) -> float:
        return float(self.value[0])

    @property
    def scalar_error(self) -> float:
        return float(self.error[0])


def _eval_panels(f, a: np.ndarray, b: np.ndarray):
    """Evaluate K15 and G7 on a batch of panels.

    a, b: arrays of panel endpoints, shape (k,).  Returns (kron, gauss,
    err) each of shape (k, m)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = (mid[:, None] + half[:, None] * _NODES[None, :]).reshape(-1)
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if not np.all(np.isfinite(vals)):
        raise NumericalRangeError("integrand returned a non-finite value")
    m = vals.shape[1]
    vals = vals.reshape(len(a), 15, m)
    kron = np.einsum("kij,i->kj", vals, _W_KRON) * half[:, None]
    gauss = np.einsum("kij,i->kj", vals, _W_GAUSS) * half[:, None]
    err = np.abs(kron - gauss)
    return kron, gauss, err


def integrate_finite(
    f,
    a: float,
    b: float,
    atol: float = 1e-10,
    rtol: float = 1e-8,
    max_panels: int = 4000,
) -> QuadResult:
    """Adaptively integrate the vector integrand f over [a, b]."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ParameterError(f"bad integration interval [{a}, {b}]")
    if atol <= 0.0 and rtol <= 0.0:
        raise ParameterError("need a positive atol or rtol")

    kron, _, err = _eval_panels(f, np.array([a]), np.array([b]))
    totals = kron[0].copy()
    err_totals = err[0].copy()
    # heap of (-scaled_error, seq, a, b, kron_row, err_row); a panel's error is
    # scaled by the tolerance target max(atol, rtol |total|), floored at the
    # smallest positive double so a zero target never gives a NaN priority
    tol = np.maximum(atol, rtol * np.abs(totals))
    seq = 0
    heap = [(0.0, seq, a, b, kron[0], err[0])]  # alone, it needs no rank
    panels = 1
    while True:
        if np.all(err_totals <= tol):
            break
        if panels >= max_panels:
            raise ConvergenceError(
                f"quadrature: error target not met with {max_panels} panels "
                f"(worst component error {float(np.max(err_totals / tol)):.3g}x target)"
            )
        neg_err, _, pa, pb, pk, pe = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        kron2, _, err2 = _eval_panels(f, np.array([pa, mid]), np.array([mid, pb]))
        totals += kron2[0] + kron2[1] - pk
        err_totals += err2[0] + err2[1] - pe
        tol = np.maximum(atol, rtol * np.abs(totals))
        scaled = (err2 / np.maximum(tol, _TINY)).max(axis=1)
        for row in range(2):
            seq += 1
            heapq.heappush(
                heap,
                (-float(scaled[row]), seq, (pa, mid)[row], (mid, pb)[row],
                 kron2[row], err2[row]),
            )
        panels += 1
    return QuadResult(value=totals, error=err_totals, panels=panels)


def integrate_zero_inf(
    f,
    atol: float = 1e-10,
    rtol: float = 1e-8,
    max_panels: int = 4000,
) -> QuadResult:
    """Integrate f over (0, inf) via t = u/(1-u).

    The integrand must decay fast enough that f(t)/(1-u)^2 -> 0 as u -> 1;
    the outer moment integrand x^n Utilde(x) of verify_moments is
    exponentially damped, so the mapped integrand vanishes at both endpoints
    (nodes are interior, the endpoints are never evaluated)."""

    def mapped(u: np.ndarray):
        t = u / (1.0 - u)
        vals = np.asarray(f(t), dtype=float)
        jac = 1.0 / (1.0 - u) ** 2
        if vals.ndim == 1:
            return vals * jac
        return vals * jac[:, None]

    return integrate_finite(mapped, 0.0, 1.0, atol=atol, rtol=rtol, max_panels=max_panels)


# Double-exponential rule.  A coarse scan finds, per row, the s-window where
# the log-integrand lies within _DE_DROP of its maximum (e^-40 ~ 4e-18 of the
# peak); _DE_POINTS trapezoid intervals then cover that window.  Rows whose
# h vs 2h estimate misses the tolerance are refined by halving h, at most
# _DE_LEVELS times.  A peak much narrower than the scan step _DE_STEP is left
# under-resolved by that budget and raises ConvergenceError.  The scan widens
# by doubling while a row is not negligible at its ends, up to _DE_LIMITS
# (s = -24 is log t ~ -2.6e10; s = 720 is past every finite double t).
_DE_SCAN = (-6.0, 24.0)
_DE_STEP = 0.25
_DE_LIMITS = (-24.0, 720.0)
_DE_DROP = 40.0
_DE_POINTS = 384
_DE_LEVELS = 3
# rows per block, as in one outer Gauss-Kronrod batch (2 panels x 15 nodes):
# bounds the working set at a few hundred kB whatever the number of rows
_DE_ROWS = 30
# a log-integrand of size G carries a rounding error of a few ulp of G, which
# floors the relative accuracy any rule can reach on that row
_DE_NOISE = 16.0 * 2.0**-52


@dataclass
class LogQuadResult:
    log_value: np.ndarray  # shape (m,) natural log of each row's integral
    rel_error: np.ndarray  # shape (m,) estimated relative error per row
    points: int  # log-integrand evaluations over all rows


def _de_log_integrand(log_f, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of f(t) dt/ds at t = exp(s - e^-s), shape (len(x), s.shape[-1]).

    s is a fresh array of shape (k,) or (m, k); it is overwritten by log t
    so that only two temporaries of its size live beside log_f's own."""
    e = np.negative(s)
    np.exp(e, out=e)
    log_t = np.subtract(s, e, out=s)
    jac = np.log1p(e, out=e)
    jac += log_t
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = np.asarray(log_f(log_t, x), dtype=float)
    g = np.add(g, jac, out=jac) if g.shape == jac.shape else g + jac
    shape = (len(x), s.shape[-1])
    if g.shape != shape:
        g = np.broadcast_to(g, shape).copy()
    if np.isnan(g).any() or np.isposinf(g).any():
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


def _de_scan(log_f, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Coarse scan: each row's s-window (lo, hi) and the points spent."""
    lo, hi = _DE_SCAN
    g = _de_log_integrand(log_f, _de_scan_grid(lo, hi), x)
    points = g.size
    while True:
        top = g.max(axis=1)
        if not np.all(np.isfinite(top)):
            raise NumericalRangeError("log-integrand is -inf on the whole scan")
        low_open = bool(np.any(g[:, 0] > top - _DE_DROP))
        high_open = bool(np.any(g[:, -1] > top - _DE_DROP))
        if not (low_open or high_open):
            break
        new_lo = max(2.0 * lo, _DE_LIMITS[0]) if low_open else lo
        new_hi = min(2.0 * hi, _DE_LIMITS[1]) if high_open else hi
        if (new_lo, new_hi) == (lo, hi):
            raise ConvergenceError(
                "double-exponential quadrature: integrand not negligible at the "
                f"scan limit s = {lo if low_open else hi:g}"
            )
        below = _de_log_integrand(log_f, _de_scan_grid(new_lo, lo)[:-1], x)
        above = _de_log_integrand(log_f, _de_scan_grid(hi, new_hi)[1:], x)
        points += below.size + above.size
        g = np.concatenate([below, g, above], axis=1)
        lo, hi = new_lo, new_hi
    s = _de_scan_grid(lo, hi)
    first, last = _de_window(g)
    return s[first], s[last], points


def integrate_zero_inf_de(log_f, x, rtol: float = 1e-11) -> LogQuadResult:
    """Integrate exp(log_f(log t, x)) over t in (0, inf) for every x at once.

    log_f receives log t as an array of shape (k,) or (m, k) and x as a
    column of shape (m, 1), and returns the log of a positive integrand,
    broadcast to (m, k); -inf marks a zero.  Row i is accepted when its
    error estimate is at most rtol * I_i, with rtol floored at the rounding
    error of a log-integrand of that row's size.  Raises ConvergenceError
    when a row misses its tolerance after the last refinement (as a peak
    much narrower than the coarse scan step does) or is not negligible at
    the scan limits, and NumericalRangeError for a NaN or +inf
    log-integrand."""
    if not rtol > 0.0:
        raise ParameterError("need rtol > 0")
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    if not len(x):
        raise ParameterError("need at least one abscissa")
    blocks = [_de_block(log_f, x[i:i + _DE_ROWS], rtol) for i in range(0, len(x), _DE_ROWS)]
    return LogQuadResult(
        log_value=np.concatenate([blk.log_value for blk in blocks]),
        rel_error=np.concatenate([blk.rel_error for blk in blocks]),
        points=sum(blk.points for blk in blocks),
    )


def _de_block(log_f, x: np.ndarray, rtol: float) -> LogQuadResult:
    a, b, points = _de_scan(log_f, x)
    h = (b - a) / _DE_POINTS
    g = _de_log_integrand(log_f, a[:, None] + h[:, None] * np.arange(_DE_POINTS + 1), x)
    points += g.size

    top = g.max(axis=1)
    f = np.exp(g - top[:, None])
    ends = 0.5 * (f[:, 0] + f[:, -1])
    total = h * (f.sum(axis=1) - ends)
    err = np.abs(total - 2.0 * h * (f[:, ::2].sum(axis=1) - ends))
    rtol_row = np.maximum(rtol, _DE_NOISE * (np.abs(top) + _DE_DROP))
    bad = err > rtol_row * total
    for level in range(_DE_LEVELS + 1):
        if not bad.any():
            break
        if level == _DE_LEVELS:
            i = int(np.argmax(bad))
            raise ConvergenceError(
                f"double-exponential quadrature: relative error {err[i] / total[i]:.3g} "
                f"above target {rtol_row[i]:.3g} at x = {x[i, 0]:.6g} with "
                f"{_DE_POINTS << level} intervals"
            )
        rows = np.flatnonzero(bad)
        h[rows] *= 0.5
        k = _DE_POINTS << level
        mids = a[rows, None] + h[rows, None] * (2.0 * np.arange(k) + 1.0)
        gm = _de_log_integrand(log_f, mids, x[rows])
        points += gm.size
        # rescale the rows whose midpoints rise above the previous maximum
        new_top = np.maximum(top[rows], gm.max(axis=1))
        shrink = np.exp(top[rows] - new_top)
        refined = 0.5 * total[rows] * shrink + h[rows] * np.exp(gm - new_top[:, None]).sum(axis=1)
        err[rows] = np.abs(refined - total[rows] * shrink)
        total[rows] = refined
        top[rows] = new_top
        bad = err > rtol_row * total
    return LogQuadResult(log_value=top + np.log(total), rel_error=err / total, points=points)
