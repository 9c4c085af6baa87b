"""Ladder-operator matrix elements, spectrum, and uncertainty inputs.

In the number basis the deformed annihilator acts as
A |n> = sqrt([n]) |n-1> and its adjoint as A+ |n> = sqrt([n+1]) |n+1>,
so every diagonal observable of the oscillator reduces to brackets:

    [A, A+] |n> = ([n+1] - [n]) |n>
    H = (hw/2) (A A+ + A+ A),  E_n = (hw/2) ([n+1] + [n])

The position/momentum variances in |n> are ([n+1] + [n]) times the usual
oscillator scales, hbar / 2 m omega and hbar m omega / 2; the commutator
diagonal gives Robertson's bound dq dp >= (hbar/2) ([n+1] - [n]), which
the variances meet only at n = 0 (coherent.quadrature_stats returns that
bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .factorials import _brackets, box
from .params import DeformationParams, PhysicalScales, check_count

__all__ = [
    "ladder_down_coeff",
    "ladder_up_coeff",
    "commutator_diagonal",
    "energy_level",
    "heisenberg_coeff",
    "SpectrumRow",
    "spectrum_table",
]


def ladder_down_coeff(n: int, p: DeformationParams) -> float:
    """sqrt([n]), the amplitude of A |n> onto |n-1>; zero at n = 0."""
    return math.sqrt(box(n, p))


def ladder_up_coeff(n: int, p: DeformationParams) -> float:
    """sqrt([n+1]), the amplitude of A+ |n> onto |n+1>."""
    return math.sqrt(box(check_count(n, "n") + 1, p))


def commutator_diagonal(n: int, p: DeformationParams) -> float:
    """<n| [A, A+] |n> = [n+1] - [n]."""
    n = check_count(n, "n")
    return box(n + 1, p) - box(n, p)


def energy_level(n: int, p: DeformationParams, s: PhysicalScales = PhysicalScales()) -> float:
    """E_n = (hbar omega / 2) ([n+1] + [n])."""
    n = check_count(n, "n")
    return 0.5 * s.hbar * s.omega * (box(n + 1, p) + box(n, p))


def heisenberg_coeff(n: int, p: DeformationParams) -> float:
    """[n+1] - [n] + 1, the bracket combination scaling hbar/2 in the
    state-dependent lower bound on dq dp."""
    return commutator_diagonal(n, p) + 1.0


@dataclass(frozen=True)
class SpectrumRow:
    n: int
    box_n: float
    box_n_plus_1: float
    energy: float


def spectrum_table(
    n_max: int,
    p: DeformationParams,
    s: PhysicalScales = PhysicalScales(),
) -> list[SpectrumRow]:
    """Rows n = 0 .. n_max of brackets and energies."""
    b = _brackets(p, check_count(n_max, "n_max") + 1).tolist()
    return [
        SpectrumRow(n, lower, upper, 0.5 * s.hbar * s.omega * (upper + lower))
        for n, (lower, upper) in enumerate(zip(b, b[1:]))
    ]
