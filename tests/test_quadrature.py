"""Tests for the double-exponential rules: one integral per abscissa, and
several integrands on one shared node lattice."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special as sp
from numpy.testing import assert_allclose

from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.quadrature import (
    _DE_POINTS,
    _DE_ROWS,
    LogQuadResult,
    integrate_shared_de,
    integrate_zero_inf_de,
)


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
        # three blocks, the last a part one, with every third row scaled to
        # its peak: how rows are grouped moves no bit of any row
        a = np.linspace(0.1, 8.0, 2 * _DE_ROWS + 7)
        log_scale = np.where(np.arange(len(a)) % 3 == 0, np.log(a), 0.0)
        whole = integrate_zero_inf_de(_log_gamma_integrand, a, log_scale=log_scale)
        ones = [
            integrate_zero_inf_de(_log_gamma_integrand, a[i:i + 1], log_scale=log_scale[i:i + 1])
            for i in range(len(a))
        ]
        assert whole.log_value.tolist() == [one.log_value[0] for one in ones]
        assert whole.rel_error.tolist() == [one.rel_error[0] for one in ones]
        assert whole.points == sum(one.points for one in ones)

    def test_estimate_miss_raises(self):
        # a jump at t = 1: the trapezoid error stays O(h) through every refinement
        step = lambda log_t, x: np.where(log_t < 0.0, 0.0, -np.inf)
        with pytest.raises(ConvergenceError):
            integrate_zero_inf_de(step, [1.0])

    def test_peak_narrower_than_scan_step_raises(self):
        # t^(a-1) e^-t at a = 1e8 peaks with width ~1e-4 in s, far below the
        # coarse scan step: the refinements cannot resolve it, and the row
        # fails with a typed error rather than returning a value
        with pytest.raises(ConvergenceError):
            integrate_zero_inf_de(_log_gamma_integrand, [1e8])

    def test_divergent_integral_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_zero_inf_de(lambda log_t, x: np.zeros(np.shape(log_t)), [1.0])

    def test_nan_integrand_raises(self):
        with pytest.raises(NumericalRangeError):
            integrate_zero_inf_de(lambda log_t, x: np.log(x - 2.0) - np.exp(log_t), [1.0])

    def test_zero_integrand_raises(self):
        # -inf marks a zero; a row that is zero on the whole scan has no window
        with pytest.raises(NumericalRangeError, match="-inf on the whole scan"):
            integrate_zero_inf_de(lambda log_t, x: np.full(np.shape(log_t), -np.inf), [1.0])

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            integrate_zero_inf_de(_log_gamma_integrand, [1.0], rtol=0.0)
        with pytest.raises(ParameterError):
            integrate_zero_inf_de(_log_gamma_integrand, [])
        with pytest.raises(ParameterError, match="one value per abscissa"):
            integrate_zero_inf_de(_log_gamma_integrand, [1.0, 2.0], log_scale=[0.0])

    def test_scale_reaches_an_edge_far_below_one(self):
        # t^-1 exp(-t - x/t) integrates to 2 K0(2 sqrt x): a plateau in log t
        # from log x to 0 with a sharp edge at each end.  Scaled to the
        # lower edge, both lie on the linear side of the map
        x = np.array([1e-300, 1e-120, 1e-20])
        log_bessel = lambda log_t, x: -np.exp(log_t) - x * np.exp(-log_t) - log_t
        res = integrate_zero_inf_de(log_bessel, x, log_scale=np.log(x) + 1.0)
        ref = np.log(2.0 * sp.k0(2.0 * np.sqrt(x)))
        assert_allclose(res.log_value, ref, rtol=0, atol=1e-12)
        assert np.all(res.rel_error <= 1e-11)

    def test_unit_scale_is_the_unscaled_map(self):
        a = np.array([0.5, 3.0])
        plain = integrate_zero_inf_de(_log_gamma_integrand, a)
        scaled = integrate_zero_inf_de(_log_gamma_integrand, a, log_scale=np.zeros(2))
        assert plain.log_value.tolist() == scaled.log_value.tolist()
        assert plain.points == scaled.points


class TestKernelCalls:
    def test_peak_memory_is_bounded_by_a_block(self):
        # the kernel evaluates a block of rows at a time, so ten blocks peak
        # about as high as one: about five block-sized arrays, the kernel's
        # and the integrand's temporaries together
        block_bytes = 8 * _DE_ROWS * (_DE_POINTS + 1)
        peaks = []
        for blocks in (1, 10):
            a = np.linspace(0.5, 8.0, blocks * _DE_ROWS)
            integrate_zero_inf_de(_log_gamma_integrand, a)
            tracemalloc.start()
            try:
                res = integrate_zero_inf_de(_log_gamma_integrand, a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert_allclose(res.log_value, [math.lgamma(v) for v in a], rtol=0, atol=1e-13)
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 6 * block_bytes

    def test_log_integrand_may_overwrite_log_t(self):
        def spoil(log_t, a):
            g = _log_gamma_integrand(log_t, a)
            log_t[...] = np.nan
            return g

        a = np.array([0.5, 3.0])
        want = integrate_zero_inf_de(_log_gamma_integrand, a)
        got = integrate_zero_inf_de(spoil, a)
        assert got.log_value.tolist() == want.log_value.tolist()
        assert got.points == want.points

    def test_a_kernel_call_inside_a_log_integrand(self):
        # the outer call's nodes and its integrand's values survive the inner call
        def outer(log_t, x):
            g = np.log(x) - np.exp(log_t)  # x e^-t
            inner = integrate_zero_inf_de(_log_gamma_integrand, [2.0])  # Gamma(2) = 1
            return g + inner.log_value[0]

        res = integrate_zero_inf_de(outer, [0.5, 2.0])
        assert_allclose(res.log_value, np.log([0.5, 2.0]), rtol=0, atol=1e-13)

    def test_threads_agree_bit_for_bit(self):
        # more threads than cores, switching often: calls on several threads
        # must not mix their rows
        a = np.linspace(0.5, 8.0, 2 * _DE_ROWS)
        want = integrate_zero_inf_de(_log_gamma_integrand, a).log_value
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(integrate_zero_inf_de, _log_gamma_integrand, a) for _ in range(8)
                ]
                runs = [f.result(timeout=60).log_value for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in runs:
            assert got.tolist() == want.tolist()


def _gamma_moments(orders, calls=None):
    """log_f of t^n e^-t, one row per order n, recording each call's nodes."""

    def log_f(log_t):
        if calls is not None:
            calls.append(log_t.copy())
        return orders[:, None] * log_t - np.exp(log_t)

    return log_f


class TestSharedNodes:
    def test_factorials_in_one_pass(self):
        orders = np.arange(13.0)
        res = integrate_shared_de(_gamma_moments(orders), low_power=1.0)
        assert_allclose(res.log_value, sp.gammaln(orders + 1.0), rtol=0, atol=1e-14)
        assert np.all(res.rel_error <= 1e-9)
        assert res.log_value.shape == res.rel_error.shape == (13,)

    def test_each_node_evaluated_once(self):
        calls = []
        res = integrate_shared_de(_gamma_moments(np.arange(9.0), calls), low_power=1.0)
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes)) == len(nodes) == res.points
        # the scan, then h = 1/8 and h = 1/16 (1/32 is not needed here): the
        # last two calls are the midpoints of the window at the step before
        scan = np.concatenate(calls[:-2])
        assert len(calls[-1]) == 2 * len(calls[-2])
        s = lambda log_t: np.array([_inverse_map(v) for v in log_t])
        assert_allclose(np.diff(s(calls[-1])), 0.125, atol=1e-9)
        assert_allclose(np.diff(np.sort(s(scan))), 0.25, atol=1e-9)

    def test_slow_power_law_at_zero_refused_up_front(self):
        # t^0.02 e^-t in d(log t) keeps 1e-6 of its mass below t = 2e-292,
        # the lowest node: refused before log_f is called
        calls = []
        with pytest.raises(NumericalRangeError, match="at least 0.03085"):
            integrate_shared_de(_gamma_moments(np.array([-0.98]), calls), low_power=0.02)
        assert calls == []

    def test_power_law_inside_the_lattice(self):
        # t^-0.9 e^-t: Gamma(0.1), with t^0.1 falling by e^-40 near t = e^-400
        res = integrate_shared_de(_gamma_moments(np.array([-0.9])), low_power=0.1)
        assert res.log_value[0] == pytest.approx(math.lgamma(0.1), rel=1e-14)

    def test_power_law_tail_below_the_lattice_in_the_estimate(self):
        # t^-0.96 e^-t: t^0.04 still holds e^-26.9 of Gamma(0.04) below the
        # lowest node, which the error estimate bounds
        res = integrate_shared_de(_gamma_moments(np.array([-0.96])), low_power=0.04)
        error = abs(res.log_value[0] - math.lgamma(0.04))
        assert 1e-13 < error <= res.rel_error[0] <= 1e-11

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_integrand_raises(self, bad):
        def log_f(log_t):
            g = _gamma_moments(np.arange(3.0))(log_t)
            g[1, log_t > 0.0] = bad
            return g

        with pytest.raises(NumericalRangeError, match="NaN or \\+inf"):
            integrate_shared_de(log_f, low_power=1.0)

    def test_zero_integrand_raises(self):
        zero = lambda log_t: np.full((2, len(log_t)), -np.inf)
        with pytest.raises(NumericalRangeError, match="-inf on the whole scan"):
            integrate_shared_de(zero, low_power=1.0)

    def test_missed_tolerance_raises(self):
        # a jump at t = 1 keeps the h vs 2h difference at O(h)
        step = lambda log_t: np.where(log_t < 0.0, 0.0, -np.inf)[None, :]
        with pytest.raises(ConvergenceError):
            integrate_shared_de(step, low_power=1.0)

    def test_not_negligible_at_the_top_limit_raises(self):
        flat = lambda log_t: np.where(log_t > 0.0, -log_t, log_t)[None, :] * 1e-3 - log_t
        with pytest.raises(ConvergenceError, match="scan limit"):
            integrate_shared_de(flat, low_power=1.0)


def _inverse_map(log_t: float) -> float:
    """s with s - e^-s = log t, by Newton's method."""
    s = log_t if log_t > 0.0 else -math.log(-log_t + 1.0)
    for _ in range(60):
        s -= (s - math.exp(-s) - log_t) / (1.0 + math.exp(-s))
    return s
