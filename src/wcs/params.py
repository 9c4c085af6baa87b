"""Parameter containers for the deformed oscillator family.

The three-parameter deformation (alpha, beta, nu) fixes the algebra; the
physical scales (hbar, mass, omega) only enter observables through the
usual oscillator prefactors and default to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class DeformationParams:
    """Admissible deformation triple.

    Constraints: alpha in [0, 1], beta in (0, 1], nu > alpha - 1.
    """

    alpha: float
    beta: float
    nu: float

    def __post_init__(self) -> None:
        a, b, v = self.alpha, self.beta, self.nu
        for name, val in (("alpha", a), ("beta", b), ("nu", v)):
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ParameterError(f"{name} must be a finite real number, got {val!r}")
        if not 0.0 <= a <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {a}")
        if not 0.0 < b <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {b}")
        if not v > a - 1.0:
            raise ParameterError(f"nu must exceed alpha - 1 = {a - 1.0}, got {v}")
        # normalize ints to floats so the frozen instance hashes predictably
        object.__setattr__(self, "alpha", float(a))
        object.__setattr__(self, "beta", float(b))
        object.__setattr__(self, "nu", float(v))

    @property
    def cs_valid(self) -> bool:
        """True when nu >= 0, the extra condition needed so the coherent
        states have positive weight in every inner product."""
        return self.nu >= 0.0

    @property
    def complete(self) -> bool:
        """True when alpha + beta <= 2, the growth condition under which the
        coherent-state family resolves the identity."""
        return self.alpha + self.beta <= 2.0


@dataclass(frozen=True)
class PhysicalScales:
    """Oscillator scales; all must be positive."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "omega"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0.0):
                raise ParameterError(f"{name} must be a positive finite real number, got {val!r}")
            object.__setattr__(self, name, float(val))

    @property
    def length_sq(self) -> float:
        """hbar / (m omega), the squared natural length."""
        return self.hbar / (self.mass * self.omega)

    @property
    def momentum_sq(self) -> float:
        """hbar * m * omega, the squared natural momentum."""
        return self.hbar * self.mass * self.omega
