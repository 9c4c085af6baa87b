"""Tests for the moment-problem toolkit: Carleman classification,
Hankel-Hadamard determinants, weight functions, and moment verification."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wcs.moments
from wcs import (
    WEIGHT_FAMILIES,
    DeformationParams,
    MomentReport,
    carleman_classify,
    carleman_partial_sums,
    classify_exponent,
    gen_factorial,
    hankel_hadamard,
    u_from_u_tilde,
    verify_moments,
    weight_ml_closed_form,
    weight_one_minus_beta,
    weight_wright,
)
from wcs.errors import ParameterError

CLASSICAL = DeformationParams(0.0, 1.0, 0.0)
P011 = DeformationParams(0.0, 1.0, 1.0)
P111 = DeformationParams(1.0, 1.0, 1.0)


def _exact_det(entries):
    """Exact determinant of a small matrix of Fractions by cofactor expansion."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        sign = -1 if j % 2 else 1
        total += sign * entries[0][j] * _exact_det(minor)
    return total


class TestCarleman:
    def test_ml_branch(self):
        v = carleman_classify(P011)
        assert v.exponent == pytest.approx(0.5)
        assert v.determinate and v.series_divergent

    def test_boundary_branch(self):
        v = carleman_classify(P111)
        assert v.exponent == pytest.approx(1.0)
        assert v.determinate

    def test_half_branch(self):
        v = carleman_classify(DeformationParams(0.5, 0.5, 0.25))
        assert v.exponent == pytest.approx(0.5)
        assert v.determinate

    def test_synthetic_indeterminate(self):
        for e in (1.2, 1.5, 3.0):
            v = classify_exponent(e)
            assert not v.determinate
            assert not v.series_divergent

    @pytest.mark.parametrize("e", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, e):
        with pytest.raises(ParameterError):
            classify_exponent(e)

    @given(st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=100)
    def test_dichotomy(self, e):
        v = classify_exponent(e)
        assert v.determinate == v.series_divergent == (e <= 1.0)

    def test_full_valid_grid_is_determinate(self):
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            for b in (0.25, 0.5, 0.75, 1.0):
                assert carleman_classify(DeformationParams(a, b, a + 0.5)).determinate


class TestCarlemanPartialSums:
    def test_frozen_divergent_checkpoints(self):
        sums = carleman_partial_sums(0.5, [10 ** 4, 10 ** 6])
        assert sums[0] == pytest.approx(327.34478013624437, rel=1e-10)
        assert sums[1] == pytest.approx(3295.035648219252, rel=1e-10)
        assert sums[1] / sums[0] > 10.0

    def test_convergent_tail(self):
        sums = carleman_partial_sums(3.0, [10 ** 4, 10 ** 6])
        assert abs(sums[1] - sums[0]) < 1e-6
        # limit is e^3 * zeta(3) for this term profile
        assert sums[1] == pytest.approx(math.exp(3.0) * sp.zeta(3.0, 1.0), rel=1e-9)

    def test_boundary_still_grows(self):
        sums = carleman_partial_sums(1.0, [10 ** 4, 10 ** 6])
        assert sums[1] - sums[0] > 1.0

    def test_monotone_in_checkpoints(self):
        sums = carleman_partial_sums(0.75, [10, 100, 1000])
        assert sums[0] < sums[1] < sums[2]

    def test_invalid_checkpoints(self):
        with pytest.raises(ParameterError):
            carleman_partial_sums(0.5, [])
        with pytest.raises(ParameterError):
            carleman_partial_sums(0.5, [100, 10])

    @pytest.mark.parametrize(
        "e, beta",
        [
            (0.5, 0.0),
            (0.5, -1.0),
            (0.5, math.nan),
            (0.5, math.inf),
            (math.nan, 1.0),
            (math.inf, 1.0),
            (-math.inf, 1.0),
        ],
    )
    def test_domain_rejected_up_front(self, e, beta):
        with pytest.raises(ParameterError):
            carleman_partial_sums(e, [10], beta=beta)

    def test_non_integer_checkpoints_rejected(self):
        for checkpoints in ([1.5], [10, 20.0]):
            with pytest.raises(ParameterError):
                carleman_partial_sums(1.0, checkpoints)
        assert carleman_partial_sums(1.0, [np.int64(3)]) == carleman_partial_sums(1.0, [3])


class TestHankel:
    def test_size_one_is_unity(self):
        for off in (0, 1):
            assert hankel_hadamard(P111, 1, off) == pytest.approx(1.0, rel=1e-12)

    def test_classical_exact_value(self):
        # moments n!: det [[1,1,2],[1,2,6],[2,6,24]] = 4, rescaled by 1/(1*2*24)
        entries = [
            [Fraction(math.factorial(i + j)) for j in range(3)] for i in range(3)
        ]
        ref = _exact_det(entries) / (
            Fraction(math.factorial(0)) * math.factorial(2) * math.factorial(4)
        )
        assert ref == Fraction(1, 12)
        assert hankel_hadamard(CLASSICAL, 3, 0) == pytest.approx(float(ref), rel=1e-10)

    def test_shifted_exact_value(self):
        # moments (n+1)!: offset-1 matrix entries (i+j+2)!
        entries = [
            [Fraction(math.factorial(i + j + 2)) for j in range(3)] for i in range(3)
        ]
        # normalization uses m_{2i+1} = (2i+2)!
        scale = Fraction(math.factorial(2)) * math.factorial(4) * math.factorial(6)
        ref = _exact_det(entries) / scale
        assert ref == Fraction(1, 60)
        assert hankel_hadamard(P011, 3, 1) == pytest.approx(float(ref), rel=1e-8)

    def test_positive_across_grid(self):
        triples = [
            CLASSICAL,
            P111,
            DeformationParams(0.5, 0.5, 0.25),
            DeformationParams(0.0, 0.5, -0.3),
            DeformationParams(1.0, 0.5, 0.5),
        ]
        for p in triples:
            for size in (1, 2, 3, 4):
                for off in (0, 1):
                    assert hankel_hadamard(p, size, off) > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            hankel_hadamard(CLASSICAL, 0, 0)
        with pytest.raises(ParameterError):
            hankel_hadamard(CLASSICAL, 3, 2)


class TestWrightWeight:
    def test_bessel_point(self):
        got = weight_wright(1.0, 1.0, 1.0, rtol=1e-11)
        assert got.u_tilde == pytest.approx(2.0 * sp.k0(2.0), rel=1e-9)
        assert got.abs_err_est <= 1e-8
        assert not got.sign_anomaly

    def test_bessel_scaling_in_x(self):
        for x in (0.25, 2.0):
            got = weight_wright(x, 1.0, 1.0, rtol=1e-11)
            assert got.u_tilde == pytest.approx(
                2.0 * sp.k0(2.0 * math.sqrt(x)), rel=1e-9
            )

    def test_small_x_limit(self):
        got = weight_wright(1e-10, 1.0, 2.0)
        assert got.u_tilde == pytest.approx(1.0, abs=1e-6)

    def test_mpmath_oracle(self):
        got = weight_wright(0.5, 0.5, 0.5)
        assert got.u_tilde > 0.0
        assert got.u_tilde == pytest.approx(float(_mp_wright(0.5, 0.5, 0.5)), rel=1e-10)

    def test_far_tail(self):
        # 30-digit mpmath, integrated in log t around the peak
        got = weight_wright(1e4, 0.7, 1.0)
        assert got.u_tilde == pytest.approx(1.7468692340950231e-238, rel=1e-12, abs=0.0)

    def test_endpoint_flag(self):
        assert weight_wright(1.0, 1.0, 0.5).endpoint_singular
        assert not weight_wright(1.0, 1.0, 2.0).endpoint_singular

    def test_positive_on_sample_grid(self):
        for x in (0.1, 1.0, 5.0):
            for b, v in ((1.0, 1.0), (0.5, 0.5), (0.5, 1.0)):
                assert weight_wright(x, b, v).u_tilde > 0.0

    def test_invalid_arguments(self):
        for x in (0.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                weight_wright(x, 1.0, 1.0)
        with pytest.raises(ParameterError):
            weight_wright(1.0, 1.5, 1.0)
        with pytest.raises(ParameterError):
            weight_wright(1.0, 1.0, 0.0)


class TestOneMinusBetaWeight:
    def test_negative_nu_frozen_value(self):
        got = weight_one_minus_beta(1.0, 0.5, -0.25)
        assert got.u_tilde == pytest.approx(0.14111057931426005, rel=1e-8)
        assert not got.sign_anomaly

    def test_exponential_damping_in_x(self):
        v1 = weight_one_minus_beta(1.0, 0.5, -0.25).u_tilde
        v2 = weight_one_minus_beta(2.0, 0.5, -0.25).u_tilde
        assert 0.0 < v2 < v1

    def test_positive_nu_continuation(self):
        got = weight_one_minus_beta(1.0, 0.5, 0.25)
        assert got.u_tilde == pytest.approx(0.3766172816436319, rel=1e-6)
        assert not got.sign_anomaly

    def test_near_unit_nu_continuation(self):
        got = weight_one_minus_beta(1.0, 0.5, 0.9)
        assert got.u_tilde > 0.0

    def test_degenerate_boundary_rejected(self):
        # beta + nu = 0 lies outside the admissible parameter wedge
        with pytest.raises(ParameterError):
            weight_one_minus_beta(1.0, 0.5, -0.5)

    def test_small_beta_near_the_origin(self):
        got = weight_one_minus_beta(1e-3, 0.05, 0.05)
        ref = float(_mp_one_minus_beta(1e-3, 0.05, 0.05))
        assert got.u_tilde == pytest.approx(ref, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            weight_one_minus_beta(1.0, 1.0, 0.25)
        with pytest.raises(ParameterError):
            weight_one_minus_beta(1.0, 0.5, 1.5)
        with pytest.raises(ParameterError):
            weight_one_minus_beta(1.0, 0.5, 0.0)
        for x in (-1.0, math.inf):
            with pytest.raises(ParameterError):
                weight_one_minus_beta(x, 0.5, 0.25)


class TestClosedFormWeight:
    def test_glauber_point(self):
        assert weight_ml_closed_form(1.0, 0.0).u_tilde == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_shifted_point(self):
        assert weight_ml_closed_form(2.0, 1.0).u_tilde == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-14
        )

    def test_fractional_nu(self):
        assert weight_ml_closed_form(1.0, -0.5).u_tilde == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), rel=1e-13
        )

    def test_no_quadrature_error(self):
        assert weight_ml_closed_form(3.0, 0.5).abs_err_est == 0.0

    @pytest.mark.parametrize("x", [0.0, math.inf, math.nan])
    def test_invalid_x(self, x):
        with pytest.raises(ParameterError):
            weight_ml_closed_form(x, 0.5)


class TestResolutionWeight:
    def test_classical_glauber_measure_is_flat(self):
        for x in (1.0, 5.0):
            sample = weight_ml_closed_form(x, 0.0)
            assert u_from_u_tilde(sample, CLASSICAL) == pytest.approx(
                1.0 / math.pi, rel=1e-11
            )

    def test_wright_composition(self):
        sample = weight_wright(1.0, 1.0, 1.0, rtol=1e-11)
        ref = 2.0 * sp.k0(2.0) * sp.iv(0, 2.0) / math.pi
        assert u_from_u_tilde(sample, P111) == pytest.approx(ref, rel=1e-8)


class TestVerifyMoments:
    def test_family_registry(self):
        assert tuple(WEIGHT_FAMILIES) == ("wright", "one-minus-beta", "ml-closed-form")

    def test_classical_moments(self):
        rep = verify_moments("ml-closed-form", 1.0, 0.0, 5)
        assert max(rep.rel_errors) <= 1e-9
        assert rep.orders == tuple(range(6))
        for n, target in zip(rep.orders, rep.target_factorials):
            assert target == pytest.approx(float(math.factorial(n)), rel=1e-12)

    def test_wright_squared_factorials(self):
        rep = verify_moments("wright", 1.0, 1.0, 6)
        assert max(rep.rel_errors) <= 1e-6
        for n, target in zip(rep.orders, rep.target_factorials):
            assert target == pytest.approx(float(math.factorial(n) ** 2), rel=1e-10)

    def test_one_minus_beta_families(self):
        for nu in (-0.25, 0.25):
            rep = verify_moments("one-minus-beta", 0.5, nu, 4)
            assert max(rep.rel_errors) <= 1e-6
            p = DeformationParams(0.5, 0.5, nu)
            for n, target in zip(rep.orders, rep.target_factorials):
                assert target == pytest.approx(
                    gen_factorial(n, p).to_float(), rel=1e-10
                )

    def test_report_invariants(self):
        rep = verify_moments("ml-closed-form", 1.0, 0.5, 6)
        assert (
            len(rep.orders)
            == len(rep.quadrature_moments)
            == len(rep.target_factorials)
            == len(rep.rel_errors)
        )
        assert rep.truncation_x > 0.0
        assert rep.family == "ml-closed-form"
        assert all(e >= 0.0 for e in rep.rel_errors)

    def test_invalid_family(self):
        with pytest.raises(ParameterError):
            verify_moments("fox-h", 1.0, 1.0, 3)

    def test_ml_requires_unit_beta(self):
        with pytest.raises(ParameterError):
            verify_moments("ml-closed-form", 0.5, 0.5, 3)

    def test_invalid_order_cap(self):
        with pytest.raises(ParameterError):
            verify_moments("ml-closed-form", 1.0, 0.0, -1)

    def test_orders_of_very_different_size(self):
        # [12]! = (12!)^2 ~ 2.3e17 against [0]! = 1: the outer heap must rank
        # panels by tolerance-scaled error, or it keeps bisecting where the
        # order-12 error is at rounding level and never refines order 0
        rep = verify_moments("wright", 1.0, 1.0, 12)
        assert max(rep.rel_errors) <= 1e-9
        assert rep.panels <= 60


def _array_weights(family, beta, nu):
    """The array evaluator that verify_moments integrates."""
    return wcs.WEIGHT_FAMILIES[family].weights(beta, nu, 1e-11)


def _mp_wright(x, beta, nu):
    with mpmath.workdps(30):
        b, v, x = mpmath.mpf(beta), mpmath.mpf(nu), mpmath.mpf(x)
        f = lambda t: t ** (v / b - 2) * mpmath.exp(-t ** (1 / b) - x / (b * t))
        return mpmath.quad(f, [0, x, 1, mpmath.inf]) / (b * b * mpmath.gamma(v))


def _mp_one_minus_beta(x, beta, nu):
    # e^(-x/b) is taken out of the w-integrand so that it stays O(1), and
    # w = y^m turns the w -> 0 endpoint power into a non-negative power of y
    with mpmath.workdps(30):
        b, v, x = mpmath.mpf(beta), mpmath.mpf(nu), mpmath.mpf(x)
        pref = mpmath.gamma(b) / (b * mpmath.gamma(b + v) * mpmath.gamma(-v)) * mpmath.exp(-x / b)
        g = lambda w: mpmath.exp(-x * ((1 + w) ** b - 1) / b)
        if nu < 0:
            m, f = 4, lambda w: w ** (-v - 1) * g(w)
        else:
            # finite part after one integration by parts
            m, f = 10, lambda w: w ** (-v) * (-x) * (1 + w) ** (b - 1) * g(w) / v
        fy = lambda y: m * y ** (m - 1) * f(y ** m)
        return pref * mpmath.quad(fy, [0, x ** (-mpmath.mpf(1) / m), mpmath.inf])


class TestArrayWeights:
    def test_wright_bessel_oracle(self):
        xs = np.geomspace(1e-4, 200.0, 40)
        u, points, _ = _array_weights("wright", 1.0, 1.0)(xs)
        ref = 2.0 * sp.k0(2.0 * np.sqrt(xs))
        np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0.0)
        assert points > 0

    @pytest.mark.parametrize(
        "family, beta, nu",
        [
            ("wright", 0.5, 1.0),
            ("wright", 0.5, 0.4),
            ("one-minus-beta", 0.5, -0.25),
            ("one-minus-beta", 0.5, 0.25),
            ("one-minus-beta", 0.5, 0.9),
        ],
    )
    def test_mpmath_and_scalar_oracles(self, family, beta, nu):
        xs = np.array([1e-3, 0.1, 1.0, 7.0, 50.0])
        u, _, _ = _array_weights(family, beta, nu)(xs)
        if family == "wright":
            mp_ref = [_mp_wright(x, beta, nu) for x in xs]
            scalar = [weight_wright(x, beta, nu) for x in xs]
        else:
            mp_ref = [_mp_one_minus_beta(x, beta, nu) for x in xs]
            scalar = [weight_one_minus_beta(x, beta, nu) for x in xs]
        np.testing.assert_allclose(u, [float(r) for r in mp_ref], rtol=1e-10, atol=0.0)
        # a scalar sample is one row of the array evaluator, bit for bit
        assert [s.u_tilde for s in scalar] == u.tolist()

    def test_closed_form_matches_scalar(self):
        xs = np.array([0.01, 1.0, 30.0])
        u, points, _ = _array_weights("ml-closed-form", 1.0, 0.5)(xs)
        assert points == len(xs)
        for x, v in zip(xs, u):
            assert v == pytest.approx(weight_ml_closed_form(x, 0.5).u_tilde, rel=1e-14)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            _array_weights("one-minus-beta", 0.5, 0.0)
        with pytest.raises(ParameterError):
            _array_weights("one-minus-beta", 0.5, 1.5)
        with pytest.raises(ParameterError):
            _array_weights("wright", 1.5, 1.0)


class TestMomentWork:
    """Deterministic work gates for the Wright check at beta = 0.5, nu = 1,
    n_max = 8.  Measured with one kernel call per outer batch and no
    truncation probe: 18 outer panels and 265 650 kernel points (~15k per
    outer batch of 30 abscissae, scan included)."""

    PANELS_CEILING = 25
    INNER_POINTS_CEILING = 300_000

    def test_one_kernel_call_per_outer_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_moments must not use the scalar weights")

        monkeypatch.setattr(wcs.moments, "weight_wright", refuse)
        monkeypatch.setattr(wcs.moments, "weight_one_minus_beta", refuse)

        counts = {"outer": 0, "kernel": 0}
        kernel = wcs.moments.integrate_zero_inf_de
        outer_quad = wcs.moments.integrate_zero_inf

        def counting_kernel(*args, **kwargs):
            counts["kernel"] += 1
            return kernel(*args, **kwargs)

        def counting_outer(f, *args, **kwargs):
            def counted(points):
                counts["outer"] += 1
                return f(points)

            return outer_quad(counted, *args, **kwargs)

        monkeypatch.setattr(wcs.moments, "integrate_zero_inf_de", counting_kernel)
        monkeypatch.setattr(wcs.moments, "integrate_zero_inf", counting_outer)
        rep = verify_moments("wright", 0.5, 1.0, 8)
        assert max(rep.rel_errors) <= 1e-9
        assert counts["kernel"] == counts["outer"]  # one call per outer batch
        assert counts["outer"] == rep.panels  # the first call, then one per bisection
        assert rep.panels <= self.PANELS_CEILING
        assert 0 < rep.inner_points <= self.INNER_POINTS_CEILING

    def test_truncation_x_from_outer_abscissae(self, monkeypatch):
        # Utilde = x^nu e^-x / Gamma(1 + nu) exactly, so the definition can be
        # checked at every abscissa the outer integral evaluated: the largest
        # one where some x^n Utilde(x) is above 1e-16 of its moment
        seen = []
        outer_quad = wcs.moments.integrate_zero_inf

        def recording(f, *args, **kwargs):
            def record(points):
                seen.append(np.array(points))
                return f(points)

            return outer_quad(record, *args, **kwargs)

        monkeypatch.setattr(wcs.moments, "integrate_zero_inf", recording)
        nu, n_max = 0.5, 6
        rep = verify_moments("ml-closed-form", 1.0, nu, n_max)
        xs = np.concatenate(seen)[:, None]
        n = np.arange(n_max + 1)
        # x^n Utilde(x) / [n]! = x^(n + nu) e^-x / Gamma(n + 1 + nu)
        log_ratio = (n + nu) * np.log(xs) - xs - sp.gammaln(n + 1 + nu)
        above = (log_ratio > math.log(1e-16)).any(axis=1)
        assert rep.truncation_x == xs[above, 0].max()
        assert rep.truncation_x < xs.max()

    def test_counters_default_to_zero(self):
        rep = MomentReport((0,), (1.0,), (1.0,), (0.0,), 1.0, "ml-closed-form")
        assert rep.panels == 0 and rep.inner_points == 0
