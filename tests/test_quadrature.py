"""Tests for the adaptive Gauss-Kronrod quadrature engine and the
double-exponential array rule."""

import math

import numpy as np
import pytest
import scipy.special as sp
from numpy.testing import assert_allclose

from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.quadrature import (
    _NODES,
    _W_GAUSS,
    _W_KRON,
    LogQuadResult,
    QuadResult,
    integrate_finite,
    integrate_zero_inf,
    integrate_zero_inf_de,
    integrate_zero_inf_exp,
)


class TestFinite:
    def test_sine_arch(self):
        res = integrate_finite(np.sin, 0.0, math.pi, atol=1e-13, rtol=1e-13)
        assert res.scalar == pytest.approx(2.0, rel=1e-13)

    def test_rational(self):
        res = integrate_finite(lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, atol=1e-13)
        assert res.scalar == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_polynomial_is_exact(self):
        res = integrate_finite(lambda x: x ** 5, 0.0, 2.0)
        assert res.scalar == pytest.approx(64.0 / 6.0, rel=1e-14)

    def test_result_metadata(self):
        res = integrate_finite(np.sin, 0.0, math.pi)
        assert isinstance(res, QuadResult)
        assert res.panels >= 1
        assert res.scalar_error >= 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ParameterError):
            integrate_finite(np.sin, 1.0, 0.0)
        with pytest.raises(ParameterError):
            integrate_finite(np.sin, 1.0, 1.0)

    def test_zero_target_component_never_ranks_nan(self):
        # atol = 0 and an identically zero component: its target is 0, and
        # ranking panels by error / target must not divide 0 by 0
        def f(x):
            return np.stack([np.sqrt(x), np.zeros_like(x)], axis=1)

        with np.errstate(all="raise"):
            res = integrate_finite(f, 0.0, 1.0, atol=0.0, rtol=1e-10)
        assert res.value[0] == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert res.value[1] == 0.0

    def test_panel_budget_exhaustion(self):
        with pytest.raises(ConvergenceError):
            integrate_finite(
                lambda x: np.sin(40.0 * x), 0.0, 1.0, atol=1e-14, rtol=1e-14,
                max_panels=1,
            )

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(NumericalRangeError):
            integrate_finite(
                lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0
            )


class TestHalfLine:
    def test_unit_exponential(self):
        res = integrate_zero_inf(lambda t: np.exp(-t), atol=1e-13, rtol=1e-12)
        assert res.scalar == pytest.approx(1.0, rel=1e-12)

    def test_gamma_integral(self):
        res = integrate_zero_inf(
            lambda t: t ** 1.5 * np.exp(-t), atol=1e-13, rtol=1e-12
        )
        assert res.scalar == pytest.approx(sp.gamma(2.5), rel=1e-12)

    def test_exp_scheme_matches_rational_scheme(self):
        f = lambda t: np.exp(-t - 1.0 / t) / t
        a = integrate_zero_inf(f, atol=1e-13, rtol=1e-12).scalar
        b = integrate_zero_inf_exp(f, atol=1e-13, rtol=1e-12).scalar
        ref = 2.0 * sp.k0(2.0)
        assert a == pytest.approx(ref, rel=1e-12)
        assert b == pytest.approx(ref, rel=1e-12)
        assert a == pytest.approx(b, rel=1e-12)

    def test_vector_integrand_single_pass(self):
        orders = np.arange(9)
        res = integrate_zero_inf(
            lambda t: t[:, None] ** orders[None, :] * np.exp(-t)[:, None],
            atol=0.0,
            rtol=1e-11,
        )
        assert_allclose(res.value, sp.factorial(orders), rtol=1e-10)
        assert res.value.shape == (9,)
        assert res.error.shape == (9,)


class TestKronrodConstants:
    """The G7/K15 constants against 40-digit mpmath arithmetic.  Sums are
    formed exactly from the stored doubles, so the only error left is the
    rounding of each constant: at most a few ulp per monomial."""

    @staticmethod
    def _rule_error(weights, k):
        import mpmath as mp

        with mp.workdps(40):
            terms = [mp.mpf(float(w)) * mp.mpf(float(x)) ** k for w, x in zip(weights, _NODES)]
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            err = abs(mp.fsum(terms) - exact)
            scale = mp.fsum(abs(t) for t in terms)
            return float(err / scale)

    def test_kronrod_exact_to_degree_22(self):
        for k in range(23):
            assert self._rule_error(_W_KRON, k) <= (k + 2) * np.finfo(float).eps, k

    def test_gauss_exact_to_degree_13(self):
        for k in range(14):
            assert self._rule_error(_W_GAUSS, k) <= (k + 2) * np.finfo(float).eps, k

    def test_gauss_nodes_are_legendre_roots(self):
        import mpmath as mp

        with mp.workdps(40):
            for node in _NODES[1:-1:2]:
                root = mp.findroot(lambda t: mp.legendre(7, t), mp.mpf(float(node)))
                assert float(root) == node


def _log_gamma_integrand(log_t, a):
    # log of t^(a-1) e^-t, one row per exponent a
    return (a - 1.0) * log_t - np.exp(log_t)


class TestDoubleExponential:
    def test_gamma_integrals_in_one_call(self):
        a = np.array([0.05, 0.5, 1.0, 3.0, 30.0])
        res = integrate_zero_inf_de(_log_gamma_integrand, a, rtol=1e-12)
        assert isinstance(res, LogQuadResult)
        assert res.log_value.shape == res.rel_error.shape == (5,)
        assert_allclose(res.log_value, [math.lgamma(v) for v in a], rtol=0, atol=1e-13)
        assert np.all(res.rel_error <= 1e-12)
        assert res.points > 0

    def test_blocks_match_single_rows(self):
        a = np.linspace(0.1, 8.0, 70)  # more rows than one block
        whole = integrate_zero_inf_de(_log_gamma_integrand, a)
        for i in (0, 31, 69):
            one = integrate_zero_inf_de(_log_gamma_integrand, a[i:i + 1])
            assert whole.log_value[i] == one.log_value[0]

    def test_estimate_miss_raises(self):
        # a jump at t = 1: the trapezoid error stays O(h) through every refinement
        step = lambda log_t, x: np.where(log_t < 0.0, 0.0, -np.inf)
        with pytest.raises(ConvergenceError):
            integrate_zero_inf_de(step, [1.0])

    def test_divergent_integral_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_zero_inf_de(lambda log_t, x: np.zeros(np.shape(log_t)), [1.0])

    def test_nan_integrand_raises(self):
        with pytest.raises(NumericalRangeError):
            integrate_zero_inf_de(lambda log_t, x: np.log(x - 2.0) - np.exp(log_t), [1.0])

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            integrate_zero_inf_de(_log_gamma_integrand, [1.0], rtol=0.0)
        with pytest.raises(ParameterError):
            integrate_zero_inf_de(_log_gamma_integrand, [])
