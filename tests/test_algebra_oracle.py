"""The oscillator layer against a number-basis oracle: the truncated
annihilator A, A|n> = sqrt([n]) |n-1>, as a 64 x 64 matrix built from the
brackets, and the diagonal observables, Robertson's bound and coherent
states read off matrix products of it.  Below the last row, n <= 62, the
truncation does not reach A A+ or A+ A, so each check holds to rounding."""

import math

import numpy as np
import pytest

from wcs import (
    CoherentLabel,
    DeformationParams,
    PhysicalScales,
    coherent_amplitudes,
    commutator_diagonal,
    energy_level,
    mandel_qz,
    quadrature_stats,
    spectrum_table,
    vacuum_uncertainty,
)
from wcs.factorials import _brackets

SIZE = 64
LAST = SIZE - 2  # the last n whose A A+ the truncation keeps
EPS = 2.0**-52

TRIPLES = [
    DeformationParams(0.0, 1.0, 0.0),
    DeformationParams(0.0, 1.0, 1.0),
    DeformationParams(1.0, 1.0, 1.0),
    DeformationParams(0.5, 0.5, 0.25),
    DeformationParams(1.0, 0.1, 0.5),
    DeformationParams(0.3, 0.7, 0.2),
    DeformationParams(0.9, 0.15, 1.7),
]
SCALES = [PhysicalScales(), PhysicalScales(2.0, 3.0, 0.7), PhysicalScales(0.5, 2.0, 1.5)]


def _annihilator(p: DeformationParams) -> np.ndarray:
    """A on |0>..|63>: sqrt([n]) in row n - 1, column n."""
    return np.diag(np.sqrt(_brackets(p, SIZE - 1)[1:]), k=1)


def _close(got: float, want: float, scale: float, ulps: float = 8.0) -> bool:
    return abs(got - want) <= ulps * EPS * scale


@pytest.mark.parametrize("p", TRIPLES)
class TestDiagonal:
    def test_energies_are_the_hamiltonian_diagonal(self, p):
        a = _annihilator(p)
        for s in SCALES:
            h = 0.5 * s.hbar * s.omega * (a @ a.T + a.T @ a)
            rows = spectrum_table(LAST, p, s)
            for n in range(LAST + 1):
                want = float(h[n, n])
                assert _close(energy_level(n, p, s), want, want), (n, s)
                assert _close(rows[n].energy, want, want), (n, s)
                assert np.count_nonzero(h[n]) == 1  # H is diagonal

    def test_commutator_diagonal(self, p):
        a = _annihilator(p)
        comm = a @ a.T - a.T @ a
        for n in range(LAST + 1):
            # the rounding of [n+1] and [n] bounds the difference's error
            scale = float((a @ a.T)[n, n] + (a.T @ a)[n, n])
            assert _close(commutator_diagonal(n, p), float(comm[n, n]), scale), n

    def test_vacuum_uncertainty(self, p):
        a = _annihilator(p)
        comm = a @ a.T - a.T @ a
        for s in SCALES:
            want = 0.5 * s.hbar * float(comm[0, 0])
            assert _close(vacuum_uncertainty(p, s), want, want), s

    def test_quadrature_product_is_robertsons_bound(self, p):
        a = _annihilator(p)
        comm = a @ a.T - a.T @ a
        anti = a @ a.T + a.T @ a
        for s in SCALES:
            for n in range(LAST + 1):
                bound = 0.5 * s.hbar * float(comm[n, n])
                got = quadrature_stats(n, p, s).product
                assert _close(got, bound, 0.5 * s.hbar * float(anti[n, n])), (n, s)

    def test_ground_position_variance(self, p):
        # X = sqrt(hbar / 2 m omega) (A + A+); <0|X|0> = 0
        a = _annihilator(p)
        for s in SCALES:
            x_op = math.sqrt(0.5 * s.length_sq) * (a + a.T)
            want = float((x_op @ x_op)[0, 0])
            assert float(x_op[0, 0]) == 0.0
            assert _close(quadrature_stats(0, p, s).var_q, want, want), s


@pytest.mark.parametrize("p", TRIPLES)
@pytest.mark.parametrize("z", [0.3, complex(0.4, -0.5), complex(-0.6, 0.6), 0.9j])
class TestCoherentStates:
    def _amplitudes(self, z, p):
        c = np.array(coherent_amplitudes(CoherentLabel(z), p, SIZE - 1))
        # the truncation drops the mass past |63>, below 2^-104 here
        assert abs(c[-1]) ** 2 < 2.0**-104
        return c

    def test_eigenvector_of_the_annihilator(self, z, p):
        c = self._amplitudes(z, p)
        a = _annihilator(p)
        residual = a @ c - z * c
        # the last row of A is zero: z c_63 is the tail
        assert abs(residual[-1] + z * c[-1]) <= 8.0 * EPS * abs(z * c[-1])
        assert np.all(np.abs(residual[:-1]) <= 8.0 * EPS * abs(z) * np.abs(c[:-1]))

    def test_mandel_qz_from_the_amplitudes(self, z, p):
        c = self._amplitudes(z, p)
        prob = np.abs(c) ** 2
        n = np.arange(SIZE, dtype=float)
        m1 = math.fsum((n * prob).tolist())
        m2 = math.fsum((n * (n - 1.0) * prob).tolist())
        want = (m2 - m1 * m1) / m1
        got = mandel_qz(CoherentLabel(z), p, tol=1e-15)
        assert abs(got - want) <= 1e-13 * (1.0 + m1), (got, want)
