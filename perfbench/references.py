"""Reference values that share no code with wcs.

They use the C library's `math.lgamma`, exact rationals, closed classical
formulas and plain power series, so an error in the package's Lanczos
log-gamma, factorial tables or series loops cannot hide in its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction

EULER_GAMMA = 0.57721566490153286061


def rel_err(value: float, ref: float) -> float:
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def log_factorial(n: int, a: float, b: float, v: float) -> float:
    """log [n]! from the telescoped gamma-function closed form."""
    lg = math.lgamma
    parts = [lg(b * i + 1.0) - lg(b * i + 1.0 - a) for i in range(1, n + 1)]
    parts.append(lg(b * n + 1.0 - a + v))
    parts.append(-lg(1.0 - a + v))
    return math.fsum(parts)


def log_box(n: int, a: float, b: float, v: float) -> float:
    """log [n] from its defining gamma-function ratio, n >= 1."""
    lg = math.lgamma
    return (
        lg(b * n + 1.0) - lg(b * n + 1.0 - a)
        + lg(b * n + 1.0 - a + v) - lg(b * (n - 1) + 1.0 - a + v)
    )


def box(n: int, a: float, b: float, v: float) -> float:
    """[n] on linear scale; [0] = 0."""
    return 0.0 if n == 0 else math.exp(log_box(n, a, b, v))


def log_fock_weights(x: float, a: float, b: float, v: float, rel: float = 1e-18) -> list[float]:
    """log of the unnormalized photon weights x^n / [n]!, until they stop
    mattering next to the largest."""
    lx = math.log(x)
    out = [0.0]
    peak = 0.0
    cut = math.log(rel)
    n = 0
    while True:
        n += 1
        lw = out[-1] + lx - log_box(n, a, b, v)
        out.append(lw)
        peak = max(peak, lw)
        if n > 5 and lw < peak + cut and lw < out[-2]:
            return out


def photon_stats(x: float, a: float, b: float, v: float) -> dict:
    """log N(x), the probabilities, the normally-ordered moments r = 1, 2 and
    both Mandel parameters, by brute-force Fock sums."""
    lw = log_fock_weights(x, a, b, v)
    peak = max(lw)
    w = [math.exp(l - peak) for l in lw]
    norm = math.fsum(w)
    p = [wn / norm for wn in w]
    m1 = math.fsum(n * pn for n, pn in enumerate(p))
    m2 = math.fsum(n * (n - 1) * pn for n, pn in enumerate(p))
    bx = [box(n, a, b, v) for n in range(len(p))]
    e1 = math.fsum(bn * pn for bn, pn in zip(bx, p))
    e2 = math.fsum(bn * bn * pn for bn, pn in zip(bx, p))
    return {
        "log_n": peak + math.log(norm),
        "p": p,
        "moments": (m1, m2),
        "q_z": (m2 - m1 * m1) / m1,
        "q_m": (e2 - e1 * e1) / e1 - 1.0,
    }


def hermite_function(k: int, x: float) -> float:
    """Classical oscillator eigenfunction with hbar = m = omega = 1."""
    h_prev, h = 0.0, 1.0
    for j in range(k):
        h_prev, h = h, 2.0 * x * h - 2.0 * j * h_prev
    norm = math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))
    return h * math.exp(-0.5 * x * x) / norm


def bessel_i0_k0(z: float) -> tuple[float, float]:
    """I0(z) and K0(z) from their power series (fine for z up to ~10)."""
    q = 0.25 * z * z
    term = 1.0
    harmonic = 0.0
    i_parts = [1.0]
    k_parts = [0.0]
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        harmonic += 1.0 / k
        i_parts.append(term)
        k_parts.append(term * harmonic)
        if term < 1e-18 * math.fsum(i_parts):
            break
    i0 = math.fsum(i_parts)
    k0 = -(math.log(0.5 * z) + EULER_GAMMA) * i0 + math.fsum(k_parts)
    return i0, k0


def hankel_classical(size: int, offset: int) -> float:
    """Rescaled Hankel determinant of the moments (k)! exactly, then rounded."""
    m = [Fraction(math.factorial(k + offset)) for k in range(2 * size - 1)]
    mat = [[m[i + j] for j in range(size)] for i in range(size)]
    det = Fraction(1)
    for col in range(size):
        pivot = mat[col][col]
        det *= pivot
        for row in range(col + 1, size):
            f = mat[row][col] / pivot
            for j in range(col, size):
                mat[row][j] -= f * mat[col][j]
    scale = Fraction(1)
    for i in range(size):
        scale *= m[2 * i]
    return float(det / scale)
