"""Log-gamma and a tiny log-scale number type.

Everything downstream (deformed factorials, series weights, photon
statistics) is built from ratios of gamma functions whose linear values
overflow early, so the base layer works in log space throughout.

The public scalar `log_gamma` is the C library's lgamma, checked.  The
factorial tables call it once per table; every entry comes from two numpy
series, with coefficients from a literal table of Bernoulli numbers:
Stirling's series for log Gamma (`_stirling_log_gamma`), and its
difference for the ratio log Gamma(w + d) - log Gamma(w)
(`_ratio_coefficients`, `_ratio_series`), which has no large values to
cancel.  Both are summed where every argument is at least
_SERIES_MIN_ARG; the ratio series reaches smaller arguments by shifting
them up, one step of order d (1 - d) / x^2 at a time, all steps of an
array on one grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalRangeError, ParameterError
from .params import check_real

__all__ = ["LogValue", "log_gamma", "gamma_signed"]

_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# exp overflows just above this, so log-scale values beyond it have no
# finite linear representation
_MAX_FINITE_LOG = math.log(sys.float_info.max)
_TINY = sys.float_info.min  # the least normal double


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0, and +inf at x = +inf.

    The C library's lgamma, which is -log x to double precision at a
    subnormal x.  Above about 2.5e305, where log Gamma itself overflows,
    raises NumericalRangeError.
    """
    if isinstance(x, float) and x == math.inf:
        return math.inf
    x = check_real(x, "x", above=0.0)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise NumericalRangeError(f"log Gamma({x}) overflows double precision") from None


def _exp_each(a: np.ndarray) -> np.ndarray:
    """The C library's exp elementwise, not numpy's: the two differ in the
    last bit on about one argument in twenty, which would part the linear
    brackets from box."""
    return np.fromiter(map(math.exp, a.tolist()), float, len(a))


# Bernoulli numbers B_0..B_14 (B_1 = -1/2) as exact fractions
_BERNOULLI = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6),
)
_B_DEN = math.lcm(*(den for _, den in _BERNOULLI))
_B_SCALED = tuple(num * (_B_DEN // den) for num, den in _BERNOULLI)  # B_k * _B_DEN
# Both series below are summed only where every argument is at least z0
# (_ratio_series shifts smaller ones up).  At 13 both remainders stay
# below a tenth of an ulp (the bounds below).  z0 also fixes where each
# table's closed-form factorials start (k0) and which arguments are
# shifted, so another value would move the bits of every table entry.
_SERIES_MIN_ARG = 13.0

# Stirling's series, log Gamma(z) = (z - 1/2)(log z - 1) + (log 2 pi - 1)/2
# + sum_(m<=7) B_2m / (2m (2m - 1) z^(2m-1)).  For real z > 0 the remainder
# is smaller than the first omitted term, 7.1 / (240 z^15) < 6e-19 at
# z >= z0, where log Gamma(z) >= 20 has an ulp of 3.6e-15.  Int / int
# rounds once, so each coefficient is the double nearest its fraction.
_STIRLING = tuple(
    _B_SCALED[2 * m] / (_B_DEN * 2 * m * (2 * m - 1)) for m in range(1, 8)
)

# The ratio series (DLMF 5.11.8 differenced; Tricomi and Erdelyi 1951):
# log Gamma(w + d) - log Gamma(w) = d log w + sum_(j<=J) c_j(d) / w^j,
# c_j(d) = (-1)^(j+1) (B_(j+1)(d) - B_(j+1)) / (j (j+1)), for 0 <= d <= 1.
# By Euler-Maclaurin, with |B_n(x)| <= 2 zeta(n) n! / (2 pi)^n on [0, 1],
# the remainder after J terms is at most 4 d zeta(J) (J-1)! / ((2 pi w)^J);
# at J = 14 and w >= z0 that is 4.3e-17 d, a tenth of an ulp of d log w.
_RATIO_TERMS = 14


def _ratio_quotients() -> tuple[tuple[float, ...], ...]:
    # c_j(d) / (d (d - 1)), a polynomial since B_n(0) = B_n(1) = B_n for n >
    # 1: divide (B_n(d) - B_n) / d = sum_(k<n) C(n,k) B_k d^(n-1-k) by d - 1
    # in integers scaled by _B_DEN, then round each coefficient once
    out = []
    for j in range(1, _RATIO_TERMS + 1):
        n = j + 1
        poly = [math.comb(n, k) * _B_SCALED[k] for k in range(n)]  # highest power first
        quotient = [poly[0]]
        for c in poly[1:-1]:
            quotient.append(c + quotient[-1])
        out.append(tuple((-1) ** n * q / (_B_DEN * j * n) for q in quotient))
    return tuple(out)


_RATIO_QUOTIENTS = _ratio_quotients()  # coefficients of q_j, highest power first


def _stirling_log_gamma(z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """log(Gamma(z) scale^(z-1)) on a float array whose every element is
    >= _SERIES_MIN_ARG; at an integer z, the sum of log(scale k) over k < z.
    Taking log(scale z) whole keeps (z - 1) log scale from cancelling
    against log Gamma(z) when scale < 1."""
    y = 1.0 / z
    acc = _horner(_STIRLING, y * y)
    const = _LN_SQRT_TWO_PI - 0.5 - 0.5 * math.log(scale)
    return (z - 0.5) * (np.log(scale * z) - 1.0) + const + acc * y


def _ratio_coefficients(d: float) -> tuple[float, ...]:
    """c_1(d), ..., c_J(d) of the ratio series, as d (d - 1) q_j(d): exactly
    0 at d = 0 and d = 1, where the ratio is 1 or w."""
    out = []
    for q in _RATIO_QUOTIENTS:
        acc = 0.0
        for c in q:
            acc = acc * d + c
        out.append(d * (d - 1.0) * acc)
    return tuple(out)


def _ratio_series(w: np.ndarray, d: float, coeffs: tuple[float, ...]) -> np.ndarray:
    """rho(w) = log Gamma(w + d) - log Gamma(w) - d log w on a float array of
    w > 0, for coeffs = _ratio_coefficients(d): the series sum_j c_j / w^j
    where w >= _SERIES_MIN_ARG; below, the series at w + m, the first such
    point, plus the m steps rho(x) - rho(x + 1) = d log1p(1/x) - log1p(d/x),
    each of order d (1 - d) / x^2 and 0 at d = 0 and d = 1.  At a subnormal
    w, where 1/w overflows, the first step is (1 - d) log w - log(w + d),
    the same to within d w."""
    shifts = np.maximum(np.ceil(_SERIES_MIN_ARG - w), 0.0)
    i = np.arange(shifts.max(initial=0.0))
    steps = 0.0
    if len(i):  # step i at x = w + i, where i < shifts; added in order of i
        x = np.maximum(w[:, None] + i, _TINY)
        grid = np.where(i < shifts[:, None], d * np.log1p(1.0 / x) - np.log1p(d / x), 0.0)
        tiny = w < _TINY
        if tiny.any():
            grid[tiny, 0] = (1.0 - d) * np.log(w[tiny]) - np.log(w[tiny] + d)
        steps = np.add.accumulate(grid, axis=1)[:, -1]
    y = 1.0 / (w + shifts)
    return _horner(coeffs, y) * y + steps


def _horner(coeffs: tuple[float, ...], y: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] y^i, in place in one temporary."""
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def gamma_signed(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for real non-pole x, including x < 0.

    Integers <= 0 are poles and raise ParameterError.  At a negative
    non-integer x, Gamma(x) is negative where floor(x) is odd, and
    log|Gamma(x)| is the C library's lgamma.  Above about 2.5e305, where
    log|Gamma| itself overflows, raises NumericalRangeError, as log_gamma
    does.
    """
    x = check_real(x, "x")
    if x > 0.0:
        return 1.0, log_gamma(x)
    if x == math.floor(x):
        raise ParameterError(f"Gamma has a pole at non-positive integer {x}")
    return (-1.0 if math.floor(x) % 2 else 1.0), math.lgamma(x)


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, log of absolute value).

    sign is -1, 0, or +1; log_abs is -inf when sign is 0.  Multiplication
    and division are exact in this representation up to float addition,
    which is the point: products of thousands of gamma-function ratios
    stay representable long after their linear values overflow.
    """

    sign: int
    log_abs: float

    @classmethod
    def from_float(cls, value: float) -> "LogValue":
        value = check_real(value, "value")
        if value == 0.0:
            return cls(0, -math.inf)
        return cls(1 if value > 0.0 else -1, math.log(abs(value)))

    @classmethod
    def from_log(cls, log_abs: float, sign: int = 1) -> "LogValue":
        log_abs = check_real(log_abs, "log_abs")
        if check_real(sign, "sign") == 0.0:
            return cls(0, -math.inf)
        return cls(1 if sign > 0 else -1, log_abs)

    def to_float(self) -> float:
        """Linear-scale value; raises NumericalRangeError on overflow."""
        if self.sign == 0:
            return 0.0
        if self.log_abs > _MAX_FINITE_LOG:
            raise NumericalRangeError(
                f"log-scale value exp({self.log_abs:.6g}) overflows double precision"
            )
        return self.sign * math.exp(self.log_abs)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue(0, -math.inf)
        return LogValue(self.sign * other.sign, self.log_abs + other.log_abs)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by a zero LogValue")
        if self.sign == 0:
            return LogValue(0, -math.inf)
        return LogValue(self.sign * other.sign, self.log_abs - other.log_abs)

    @property
    def is_finite_float(self) -> bool:
        return self.sign == 0 or self.log_abs <= _MAX_FINITE_LOG
