"""Parameter containers for the deformed oscillator family, and the one
check per kind of scalar argument that every public function applies
before any table, series or quadrature work.

The three-parameter deformation (alpha, beta, nu) fixes the algebra; the
physical scales (hbar, mass, omega) only enter observables through the
usual oscillator prefactors and default to 1.  A count is a Python or
numpy integer with a lower bound, a real a finite int or float with an
optional open or closed lower bound, and a complex number has finite
parts; a bool is none of them.  A failed check raises a ParameterError
whose message starts with the argument's name.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["DeformationParams", "PhysicalScales"]

_REALS = (int, float, np.integer, np.floating)
_COMPLEXES = (*_REALS, complex, np.complexfloating)

# the weight families' names, in the order moments.WEIGHT_FAMILIES holds
# them and the CLI's --family offers them: declared here so that the CLI
# can build its parser without importing moments
WEIGHT_FAMILY_NAMES = ("wright", "one-minus-beta", "ml-closed-form")

# the relative target of each weight value, in moments.verify_moments and
# by default in the scalar weight functions and `wcs weight --tol`
_INNER_RTOL = 1e-11


def check_count(value, name: str, low: int = 0) -> int:
    """value as an int, after checking it is an integer >= low."""
    if type(value) is not int:  # the fast path: table lookups call this per index
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value}")
    return value


def _check_finite(value, name: str, kinds: tuple, kind: str) -> None:
    try:
        ok = isinstance(value, kinds) and not isinstance(value, bool) and cmath.isfinite(value)
    except OverflowError:  # an int beyond double range
        ok = False
    if not ok:
        raise ParameterError(f"{name} must be a finite {kind} number, got {value!r}")


def check_real(value, name: str, above: float | None = None,
               at_least: float | None = None) -> float:
    """value as a float, after checking it is a finite real number, and
    > above or >= at_least where given."""
    if type(value) is not float or not math.isfinite(value):  # a finite float passes
        _check_finite(value, name, _REALS, "real")
        value = float(value)
    if above is not None and not value > above:
        raise ParameterError(f"{name} must be > {above}, got {value}")
    if at_least is not None and not value >= at_least:
        raise ParameterError(f"{name} must be >= {at_least}, got {value}")
    return value


def check_complex(value, name: str) -> complex:
    """value as a complex, after checking it is a number with finite parts."""
    _check_finite(value, name, _COMPLEXES, "complex")
    return complex(value)


@dataclass(frozen=True)
class DeformationParams:
    """Admissible deformation triple.

    Constraints: alpha in [0, 1], beta in (0, 1], nu > alpha - 1.
    """

    alpha: float
    beta: float
    nu: float

    def __post_init__(self) -> None:
        # store floats so the frozen instance hashes predictably
        for name in ("alpha", "beta", "nu"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        a, b, v = self.alpha, self.beta, self.nu
        # beta first: the one-minus-beta family derives alpha = 1 - beta, so
        # its error should name the beta its caller passed
        if not 0.0 < b <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {b}")
        if not 0.0 <= a <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {a}")
        if not v > a - 1.0:
            raise ParameterError(f"nu must exceed alpha - 1 = {a - 1.0}, got {v}")
        # hashed once: every factorial-table lookup hashes the triple
        object.__setattr__(self, "_hash", hash((a, b, v)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def cs_valid(self) -> bool:
        """True when nu >= 0, the extra condition needed so the coherent
        states have positive weight in every inner product."""
        return self.nu >= 0.0


@dataclass(frozen=True)
class PhysicalScales:
    """Oscillator scales, each positive.  The three combinations the
    observables read, m omega / hbar, hbar / (m omega) and hbar m omega,
    must each be finite and at least sys.float_info.min."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "omega"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, above=0.0))
        inv_length_sq = self.mass * self.omega / self.hbar
        for name, value in (("mass * omega / hbar", inv_length_sq),
                            # m omega is 0 only where m omega / hbar is, refused first
                            ("hbar / (mass * omega)", self.length_sq if inv_length_sq else 0.0),
                            ("hbar * mass * omega", self.momentum_sq)):
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ParameterError(
                    f"{name} must lie in [{sys.float_info.min}, {sys.float_info.max}], got"
                    f" {value} at hbar = {self.hbar}, mass = {self.mass}, omega = {self.omega}"
                )

    @property
    def length_sq(self) -> float:
        """hbar / (m omega), the squared natural length."""
        return self.hbar / (self.mass * self.omega)

    @property
    def momentum_sq(self) -> float:
        """hbar * m * omega, the squared natural momentum."""
        return self.hbar * self.mass * self.omega
