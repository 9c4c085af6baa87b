"""Log-gamma and a tiny log-scale number type.

Everything downstream (deformed factorials, series weights, photon
statistics) is built from ratios of gamma functions whose linear values
overflow early, so the base layer works in log space throughout.

One Lanczos body serves both the public scalar `log_gamma` and the private
array form `_log_gamma_array` that the factorial tables are built with; the
array form takes its logs and sines with the same C-library calls, so it
equals the scalar bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalRangeError, ParameterError
from .params import check_real

__all__ = ["LogValue", "log_gamma", "gamma_signed"]

# Lanczos approximation, g = 7 with 9 coefficients.  This variant keeps the
# relative error of exp(log_gamma) near 1e-15 across the positive axis,
# which is what the factorial layer needs; see the tests for the measured
# agreement against the C library implementation.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# exp overflows just above this, so log-scale values beyond it have no
# finite linear representation
_MAX_FINITE_LOG = math.log(sys.float_info.max)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for real x > 0, and +inf at x = +inf.

    Uses the Lanczos series directly for x >= 0.5 and the reflection
    formula below that, where the series alone degrades.  Above about
    2.5e305, where log Gamma itself overflows, raises NumericalRangeError.
    """
    if isinstance(x, float) and x == math.inf:
        return math.inf
    x = check_real(x, "x", above=0.0)
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x); both factors positive here
        return _LN_PI - math.log(math.sin(math.pi * x)) - _lanczos_log_gamma(1.0 - x)
    log_abs = _lanczos_log_gamma(x)
    if log_abs == math.inf:
        raise NumericalRangeError(f"log Gamma({x}) overflows double precision")
    return log_abs


def _lanczos_log_gamma(x, log=math.log):
    # valid for x >= 0.5; x is a float, or an array with an elementwise log
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_TWO_PI + (x - 0.5) * log(t) - t + log(acc)


def _elementwise(fn):
    # the C library's function, not numpy's: the two differ in the last bit
    # on some arguments (exp on about one in twenty), which would move table
    # entries and part array reads from the scalar accessors
    return lambda a: np.fromiter(map(fn, a.tolist()), float, len(a))


_log_each = _elementwise(math.log)
_sin_each = _elementwise(math.sin)
_exp_each = _elementwise(math.exp)


def _log_gamma_array(x: np.ndarray) -> np.ndarray:
    """log_gamma elementwise on a float array, equal to it bit for bit.

    The caller guarantees finite arguments x > 0; nothing is checked.
    """
    out = np.empty_like(x)
    big = x >= 0.5
    out[big] = _lanczos_log_gamma(x[big], _log_each)
    if not big.all():
        small = x[~big]
        out[~big] = (
            _LN_PI
            - _log_each(_sin_each(math.pi * small))
            - _lanczos_log_gamma(1.0 - small, _log_each)
        )
    return out


def gamma_signed(x: float) -> tuple[float, float]:
    """(sign, log|Gamma(x)|) for real non-pole x, including x < 0.

    Negative arguments go through the reflection formula; integers <= 0 are
    poles and raise ParameterError.  Above about 2.5e305, where log|Gamma|
    itself overflows, raises NumericalRangeError, as log_gamma does.
    """
    x = check_real(x, "x")
    if x > 0.0:
        return 1.0, log_gamma(x)
    if x == math.floor(x):
        raise ParameterError(f"Gamma has a pole at non-positive integer {x}")
    s = math.sin(math.pi * x)
    sign = 1.0 if s > 0.0 else -1.0
    return sign, _LN_PI - math.log(abs(s)) - log_gamma(1.0 - x)


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
        if sign == 0:
            return cls(0, -math.inf)
        return cls(1 if sign > 0 else -1, float(log_abs))

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
