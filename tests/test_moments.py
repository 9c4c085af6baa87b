"""Tests for the moment-problem toolkit: Carleman classification,
Hankel-Hadamard determinants, weight functions, and moment verification."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import wcs.moments
import wcs.quadrature
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
from wcs.errors import NumericalRangeError, ParameterError
from wcs.quadrature import _DE_ROWS

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

    def test_checkpoint_past_the_ceiling_refused_before_allocating(self):
        # 2^40 terms would be 8 TiB of float64
        message = f"checkpoints reach {2**40}: the ceiling is {2**24}"
        with pytest.raises(NumericalRangeError, match=message):
            carleman_partial_sums(1.0, [10, 2**40])

    @pytest.mark.parametrize(
        "e, beta", [(2.0, 1e-300), (-2.0, 1e300), (800.0, 1.0), (-800.0, 1.0)]
    )
    def test_sum_past_double_range_is_typed(self, e, beta):
        with pytest.raises(NumericalRangeError, match=re.escape(f"exponent {e}, beta {beta}: [")):
            carleman_partial_sums(e, [10], beta=beta)

    @pytest.mark.parametrize(
        "e, beta, want", [(800.0, math.e, 1.0), (720.0, 2.0, 8.921340025697029e95)]
    )
    def test_exponent_past_the_log_of_the_largest_double(self, e, beta, want):
        # e^e alone overflows past e = 709.78, but the terms, and their sum,
        # (e / (beta n))^e, fit a double: at beta = e the first term is 1
        # and the rest are below e^-500
        assert carleman_partial_sums(e, [10], beta=beta) == [pytest.approx(want, rel=1e-12)]

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

    @pytest.mark.parametrize(
        "triple", [(0.0, 1.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.5, 1.0), (0.3, 0.7, 0.2)]
    )
    def test_within_tolerance_or_raises(self, triple):
        # against the 60-digit determinant of the exactly rescaled matrix:
        # at (0, 1, 0) numpy's value was 8.6e-4 off at size 15, 17 times off
        # at 20 and negative at 40, with no error
        a, b, v = (mpmath.mpf(t) for t in triple)
        p = DeformationParams(*triple)
        with mpmath.workdps(60):
            log_m = [mpmath.mpf(0)]
            for i in range(1, 121):
                log_m.append(
                    log_m[-1] + mpmath.loggamma(b * i + 1) - mpmath.loggamma(b * i + 1 - a)
                    + mpmath.loggamma(b * i + 1 - a + v) - mpmath.loggamma(b * i - b + 1 - a + v)
                )
            for off in (0, 1):
                returned = []
                for size in range(1, 61):
                    try:
                        det = hankel_hadamard(p, size, off)
                    except NumericalRangeError as exc:
                        assert f"size {size}: rounding bound" in str(exc)
                        continue
                    returned.append(size)
                    lm = log_m[off:]
                    rows = [
                        [mpmath.exp(lm[i + j] - (lm[2 * i] + lm[2 * j]) / 2) for j in range(size)]
                        for i in range(size)
                    ]
                    exact = mpmath.det(mpmath.matrix(rows))
                    assert abs(det - exact) <= 1e-6 * exact
                # the sizes the benchmark and criterion 6 use all return
                assert returned[:5] == [1, 2, 3, 4, 5]

    def test_cli_exits_3_past_the_tolerance(self, capsys):
        from wcs.cli import main

        assert main(["hankel", "--size", "40"]) == 3
        assert "size 40: rounding bound" in capsys.readouterr().err

    def test_large_size_refused_from_its_leading_block(self, monkeypatch):
        # size 1000 is refused from the 16-block: the table is read to index
        # 2 * 16 - 2 + offset and no determinant is taken
        asked = []
        log_factorials = wcs.moments._log_factorials

        def recording(p, n):
            asked.append(n)
            return log_factorials(p, n)

        def refuse(mat):
            raise AssertionError("determinant taken")

        monkeypatch.setattr(wcs.moments, "_log_factorials", recording)
        monkeypatch.setattr(np.linalg, "det", refuse)
        for off in (0, 1):
            with pytest.raises(
                NumericalRangeError,
                match=r"^rescaled Hankel determinant of size 1000: rounding bound at least"
                r" \S+ from its leading block of size 16,",
            ):
                hankel_hadamard(CLASSICAL, 1000, off)
        assert asked and max(asked) <= 31

    def test_size_ceiling_before_any_allocation(self):
        with pytest.raises(ParameterError, match="^size must be an integer <= 1000, got 100000$"):
            hankel_hadamard(CLASSICAL, 100_000)

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

    def test_bessel_scaling_in_x(self):
        for x in (0.25, 2.0):
            got = weight_wright(x, 1.0, 1.0, rtol=1e-11)
            assert got.u_tilde == pytest.approx(
                2.0 * sp.k0(2.0 * math.sqrt(x)), rel=1e-9
            )

    def test_bessel_on_the_readme_grid(self):
        # `wcs weight --family wright --alpha 1 --nu 1 --x 0.5:4:8` at the
        # default rtol: the worst relative error is 3.46e-16, at x = 4
        for i in range(8):
            x = 0.5 + 0.5 * i
            with mpmath.workdps(40):
                ref = 2 * mpmath.besselk(0, 2 * mpmath.sqrt(x))
            assert abs(weight_wright(x, 1.0, 1.0).u_tilde - ref) <= 4e-16 * ref

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

    def test_narrow_window_reaches_the_finest_step(self):
        # log Utilde ~ -4.5e4 in a peak 0.5 wide in s, two scan steps, which
        # meets its target only after the 4 halvings of its first step that
        # every row may take, at h = 0.5/3072; the value underflows to 0
        got = weight_wright(1000.0, 0.02, 0.05)
        assert got.u_tilde == 0.0

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

    def test_exponential_damping_in_x(self):
        v1 = weight_one_minus_beta(1.0, 0.5, -0.25).u_tilde
        v2 = weight_one_minus_beta(2.0, 0.5, -0.25).u_tilde
        assert 0.0 < v2 < v1

    def test_positive_nu_continuation(self):
        got = weight_one_minus_beta(1.0, 0.5, 0.25)
        assert got.u_tilde == pytest.approx(0.3766172816436319, rel=1e-6)

    def test_near_unit_nu_continuation(self):
        got = weight_one_minus_beta(1.0, 0.5, 0.9)
        assert got.u_tilde > 0.0

    def test_no_scalar_logaddexp(self, monkeypatch):
        # log(1 + e^z) is built from numpy's vectorised exp and log1p
        def refuse(*args, **kwargs):
            raise AssertionError("np.logaddexp is a scalar loop")

        want = weight_one_minus_beta(1.0, 0.5, -0.25).u_tilde
        monkeypatch.setattr(np, "logaddexp", refuse)
        assert weight_one_minus_beta(1.0, 0.5, -0.25).u_tilde == want
        assert max(verify_moments("one-minus-beta", 0.5, 0.3, 4).rel_errors) <= 1e-12

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


@pytest.mark.parametrize("fn", [weight_wright, weight_one_minus_beta])
def test_ratio_past_double_range_is_refused_without_a_warning(fn):
    # x / beta overflows: refused before any node, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, beta in ((1e300, 1e-9), (1.0, 1e-310)):
            with pytest.raises(NumericalRangeError, match="passes the largest double"):
                fn(x, beta, 0.5)


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

    def test_error_estimate_holds_against_mpmath(self):
        # the rounding bound on a seeded grid, nu up to 700, x from 1e-8 to
        # 700, and two points thousands and tens of ulps off mpmath
        rng = np.random.default_rng(40)
        xs = 10.0 ** rng.uniform(-8.0, math.log10(700.0), 3000)
        nus = np.where(rng.random(3000) < 0.5, rng.uniform(-0.999, 4.0, 3000),
                       rng.uniform(-0.999, 700.0, 3000))
        points = [(171.6, 648.2), (30.0, 2.5), *zip(xs.tolist(), nus.tolist())]
        with mpmath.workdps(40):
            for x, nu in points:
                got = weight_ml_closed_form(x, nu)
                mx, mnu = mpmath.mpf(x), mpmath.mpf(nu)
                ref = mpmath.exp(mnu * mpmath.log(mx) - mx - mpmath.loggamma(1 + mnu))
                assert got.abs_err_est >= math.ulp(got.u_tilde)
                assert abs(mpmath.mpf(got.u_tilde) - ref) <= got.abs_err_est, (x, nu)

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

    def test_zero_weight_needs_no_series(self, monkeypatch):
        # U = 0 wherever Utilde = 0, whatever N(x) is
        monkeypatch.setattr(wcs.moments, "log_n_function", None)
        assert u_from_u_tilde(wcs.moments.WeightSample(1e6, 0.0, 0.0), P111) == 0.0

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

    @pytest.mark.parametrize("beta", [1.5, -0.5])
    def test_one_minus_beta_names_the_beta_passed(self, beta, capsys):
        # the family derives alpha = 1 - beta, which the caller never passed
        from wcs.cli import main

        message = f"beta must lie in (0, 1], got {beta}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            weight_one_minus_beta(1.0, beta, 0.25)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            verify_moments("one-minus-beta", beta, 0.25, 2)
        argv = ["moments", "--family", "one-minus-beta", "--beta", str(beta), "--nmax", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"wcs: invalid configuration: {message}\n"

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
        # [12]! = (12!)^2 ~ 2.3e17 against [0]! = 1: every order is held to
        # its own relative target on the shared nodes, the window reaching
        # from order 0's small-x tail to order 12's peak near x = 150
        rep = verify_moments("wright", 1.0, 1.0, 12)
        assert max(rep.rel_errors) <= 1e-12

    @pytest.mark.parametrize(
        "family, beta, nu, n_max",
        [
            ("ml-closed-form", 1.0, -0.9, 6),
            # x Utilde ~ x^0.06 at 0: the window ends near x = 1e-290
            ("one-minus-beta", 0.5, -0.47, 4),
            ("wright", 1.0, 1.0, 12),
            ("wright", 0.5, 0.5, 8),
            # small beta: Utilde ~ e^(-x/b) ends in a sharp edge near x = b
            ("wright", 0.0505, 0.0656, 0),
            ("one-minus-beta", 0.0238, 0.0425, 1),
            ("one-minus-beta", 0.01, 0.5, 3),
            ("one-minus-beta", 0.02, -0.01, 3),
        ],
    )
    def test_edge_cases_close_to_rounding(self, family, beta, nu, n_max):
        assert max(verify_moments(family, beta, nu, n_max).rel_errors) <= 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("steps", [6, 7, 8, 10, 20])
    def test_near_the_minus_beta_edge(self, beta, steps):
        # one-minus-beta at nu = -beta + 0.005 steps: 1 + nu/beta down to
        # 0.043, every point the adaptive Gauss-Kronrod outer rule passed
        rep = verify_moments("one-minus-beta", beta, -beta + 0.005 * steps, 4)
        assert max(rep.rel_errors) <= 1e-11

    def test_window_below_the_lattice(self):
        # x Utilde ~ x^0.04 at 0 keeps e^-27 of its mass below the lowest
        # abscissa, x = 2e-292; the estimate counts it and the check passes
        rep = verify_moments("one-minus-beta", 0.5, -0.48, 4)
        assert max(rep.rel_errors) <= 1e-11

    def test_window_beyond_double_range_refused_up_front(self, monkeypatch):
        # x Utilde ~ x^0.02 at 0 keeps 1e-6 of its mass below x = 2e-292
        def refuse(*args, **kwargs):
            raise AssertionError("no weight may be evaluated")

        monkeypatch.setattr(wcs.moments, "integrate_zero_inf_de", refuse)
        with pytest.raises(NumericalRangeError, match="at least 0.03085"):
            verify_moments("one-minus-beta", 0.5, -0.49, 4)

    def test_factorial_beyond_double_range_refused_up_front(self, monkeypatch):
        # Wright (0.5, 1): [143]! = exp(707.8) fits a double, [144]! does not
        def fail(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(wcs.moments, "integrate_shared_de", fail)
        message = r"^\[144\]! = exp\(714\.\d+\) overflows .* whose \[n\]! fits is 143$"
        with pytest.raises(NumericalRangeError, match=message):
            verify_moments("wright", 0.5, 1.0, 144)
        with pytest.raises(AssertionError, match="quadrature ran"):
            verify_moments("wright", 0.5, 1.0, 143)

    def test_closed_form_window_beyond_double_range_refused_up_front(self, monkeypatch):
        # x Utilde = x^(1 + nu) e^-x / Gamma(1 + nu) ~ x^0.02 at 0
        def refuse(xs):
            raise AssertionError("no weight may be evaluated")

        fam = WEIGHT_FAMILIES["ml-closed-form"]
        monkeypatch.setitem(
            wcs.moments.WEIGHT_FAMILIES, "ml-closed-form",
            fam._replace(weights=lambda p, rtol: refuse),
        )
        with pytest.raises(NumericalRangeError, match="at least 0.03085"):
            verify_moments("ml-closed-form", 1.0, -0.98, 4)


class TestDerivedLowPower:
    """verify_moments derives the small-x power p of x Utilde(x) from the
    triple, min(1, (1 - alpha + nu) / beta); on each family's domain it is
    the power that each family used to state by hand, or, for the closed
    form at nu > 0, the lower bound 1 of its 1 + nu."""

    @staticmethod
    def _power(monkeypatch, family, beta, nu):
        """The low_power verify_moments hands the outer rule."""
        class Recorded(Exception):
            pass

        def record(log_f, low_power):
            raise Recorded(low_power)

        monkeypatch.setattr(wcs.moments, "integrate_shared_de", record)
        with pytest.raises(Recorded) as info:
            verify_moments(family, beta, nu, 0)
        return info.value.args[0]

    def test_wright_exactly(self, monkeypatch):
        for beta in np.linspace(0.05, 1.0, 20).tolist():
            for nu in np.geomspace(0.01, 5.0, 20).tolist():
                assert self._power(monkeypatch, "wright", beta, nu) == min(nu / beta, 1.0)

    def test_one_minus_beta_to_the_rounding_of_alpha(self, monkeypatch):
        # 1 - alpha is beta plus the rounding of alpha = 1 - beta, up to
        # ulp(1)/4 for beta <= 1/2; divided by beta, plus the two formulas'
        # own rounding, within (3 + 1/(4 beta)) ulp(1); the grid's worst is
        # 4.5 ulp(1), at beta = 0.06
        for beta in np.linspace(0.02, 0.98, 49).tolist():
            for nu in np.linspace(-beta, 0.99, 60)[1:].tolist():
                if nu == 0.0:
                    continue
                got = self._power(monkeypatch, "one-minus-beta", beta, nu)
                hand = 1.0 + min(nu / beta, 0.0)
                assert abs(got - hand) <= (3.0 + 0.25 / beta) * math.ulp(1.0)

    def test_closed_form(self, monkeypatch):
        for nu in np.linspace(-0.99, 3.0, 58).tolist():
            got = self._power(monkeypatch, "ml-closed-form", 1.0, nu)
            if nu <= 0.0:
                assert got == 1.0 + nu
            else:
                assert got == 1.0 <= 1.0 + nu


def _array_weights(family, beta, nu):
    """The array evaluator that verify_moments integrates, on the linear scale."""
    fam = wcs.WEIGHT_FAMILIES[family]
    log_weights = fam.weights(fam.params(beta, nu), 1e-11)

    def evaluate(xs):
        log_u, points, rel_error = log_weights(xs)
        return np.exp(log_u), points, rel_error

    return evaluate


def _mp_wright(x, beta, nu):
    with mpmath.workdps(30):
        b, v, x = mpmath.mpf(beta), mpmath.mpf(nu), mpmath.mpf(x)
        f = lambda t: t ** (v / b - 2) * mpmath.exp(-t ** (1 / b) - x / (b * t))
        return mpmath.quad(f, [0, x, 1, mpmath.inf]) / (b * b * mpmath.gamma(v))


def _mp_one_minus_beta(x, beta, nu):
    # in u = log w, with e^(-x/b) taken out so that the damping stays O(1),
    # and breakpoints at w = 1 and at the cut-off x (1+w)^b / b = 1
    with mpmath.workdps(30):
        b, v, x = mpmath.mpf(beta), mpmath.mpf(nu), mpmath.mpf(x)
        pref = mpmath.gamma(b) / (b * mpmath.gamma(b + v) * mpmath.gamma(-v)) * mpmath.exp(-x / b)
        damp = lambda u: -(x / b) * mpmath.expm1(b * mpmath.log1p(mpmath.exp(u)))
        if nu < 0:
            f = lambda u: mpmath.exp(-v * u + damp(u))
        else:
            # finite part after one integration by parts
            pref = -pref * x / v
            f = lambda u: mpmath.exp((1 - v) * u + (b - 1) * mpmath.log1p(mpmath.exp(u)) + damp(u))
        cut = (mpmath.log(b) - mpmath.log(x)) / b
        points = sorted({mpmath.mpf(0), cut - 3, cut + 3})
        # past the last point the damping is below e^(-e^5)
        return pref * mpmath.quad(f, [-mpmath.inf, *points, points[-1] + 5 / b])


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

    @pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-100, 1e-50])
    def test_wright_bessel_at_tiny_x(self, x):
        # the kernel's scale puts the exp(-x/t) edge on the linear side of the
        # map: the plateau of t^-1 e^(-t - x/t) in log t is up to 690 long
        got = weight_wright(x, 1.0, 1.0)
        assert got.u_tilde == pytest.approx(2.0 * sp.k0(2.0 * math.sqrt(x)), rel=1e-12)

    @pytest.mark.parametrize(
        "x, beta, nu",
        [(1e-250, 0.5, -0.25), (1e-250, 0.5, 0.5)]
        + [
            (x, beta, nu)
            for x in (2.3e-308, 1e-310, 1e-320, 5e-324)
            for beta, nu in ((0.5, 0.3), (0.5, -0.3), (0.9, 0.5), (0.2, 0.1))
        ],
    )
    def test_one_minus_beta_at_tiny_x(self, x, beta, nu):
        # the cut-off sits at w = (b/x)^(1/b) ~ 1e500 or beyond, past every
        # double w; below x = b 2^-1024 (2.8e-309 at b = 1/2), b/x overflows
        got = weight_one_minus_beta(x, beta, nu)
        ref = _mp_one_minus_beta(x, beta, nu)
        assert abs(mpmath.mpf(got.u_tilde) / ref - 1) <= 1e-12
        assert abs(mpmath.mpf(got.u_tilde) - ref) <= got.abs_err_est

    def test_closed_form_matches_scalar(self):
        # the sampler is a one-row call of the array evaluator; both are
        # held to the formula evaluated in math
        xs = np.array([0.01, 1.0, 30.0])
        u, points, _ = _array_weights("ml-closed-form", 1.0, 0.5)(xs)
        assert points == len(xs)
        for x, v in zip(xs.tolist(), u.tolist()):
            want = math.exp(0.5 * math.log(x) - x - math.lgamma(1.5))
            assert v == pytest.approx(want, rel=1e-14, abs=0)
            assert weight_ml_closed_form(x, 0.5).u_tilde == v

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            _array_weights("one-minus-beta", 0.5, 0.0)
        with pytest.raises(ParameterError):
            _array_weights("one-minus-beta", 0.5, 1.5)
        with pytest.raises(ParameterError):
            _array_weights("wright", 1.5, 1.0)


class TestMomentWork:
    """Deterministic work gates for the Wright check at beta = 0.5, nu = 1,
    n_max = 8.  Measured with one kernel call, and one block, per level of
    the shared outer lattice: 84 outer nodes (the scan, then h = 1/8) and
    22 248 kernel points, about 265 per node, its own scan included."""

    OUTER_POINTS_CEILING = 92
    INNER_POINTS_CEILING = 24_470

    @staticmethod
    def _record(monkeypatch, calls):
        """Record the log x nodes of every call the outer rule makes."""
        outer_rule = wcs.moments.integrate_shared_de

        def recording(log_f, *args, **kwargs):
            def record(log_x):
                calls.append(np.array(log_x))
                return log_f(log_x)

            return outer_rule(record, *args, **kwargs)

        monkeypatch.setattr(wcs.moments, "integrate_shared_de", recording)

    def test_one_kernel_call_per_outer_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_moments must not use the scalar weights")

        monkeypatch.setattr(wcs.moments, "weight_wright", refuse)
        monkeypatch.setattr(wcs.moments, "weight_one_minus_beta", refuse)

        kernel_rows = []
        kernel = wcs.moments.integrate_zero_inf_de

        def counting_kernel(log_f, x, *args, **kwargs):
            kernel_rows.append(len(x))
            return kernel(log_f, x, *args, **kwargs)

        monkeypatch.setattr(wcs.moments, "integrate_zero_inf_de", counting_kernel)
        blocks = []
        block = wcs.quadrature._de_block

        def counting_block(log_f, x, *args):
            blocks.append(len(x))
            return block(log_f, x, *args)

        monkeypatch.setattr(wcs.quadrature, "_de_block", counting_block)
        calls = []
        self._record(monkeypatch, calls)
        rep = verify_moments("wright", 0.5, 1.0, 8)
        assert max(rep.rel_errors) <= 1e-12
        # one kernel call per outer call, on exactly its new nodes, and one
        # block per kernel call
        assert kernel_rows == [len(c) for c in calls]
        assert blocks == kernel_rows
        assert max(blocks) <= _DE_ROWS
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes)) == len(nodes) == rep.outer_points
        assert rep.outer_points <= self.OUTER_POINTS_CEILING
        assert 0 < rep.inner_points <= self.INNER_POINTS_CEILING

    def test_truncation_x_from_outer_abscissae(self, monkeypatch):
        # Utilde = x^nu e^-x / Gamma(1 + nu) exactly, so the definition can be
        # checked at every abscissa the outer integral evaluated: the largest
        # one where some x^n Utilde(x) is above 1e-16 of its moment
        calls = []
        self._record(monkeypatch, calls)
        nu, n_max = 0.5, 6
        rep = verify_moments("ml-closed-form", 1.0, nu, n_max)
        xs = np.exp(np.concatenate(calls))[:, None]
        n = np.arange(n_max + 1)
        # x^n Utilde(x) / [n]! = x^(n + nu) e^-x / Gamma(n + 1 + nu)
        log_ratio = (n + nu) * np.log(xs) - xs - sp.gammaln(n + 1 + nu)
        above = (log_ratio > math.log(1e-16)).any(axis=1)
        assert rep.truncation_x == xs[above, 0].max()
        assert rep.truncation_x < xs.max()

    def test_counters_default_to_zero(self):
        rep = MomentReport((0,), (1.0,), (1.0,), (0.0,), 1.0, "ml-closed-form")
        assert rep.outer_points == 0 and rep.inner_points == 0


class TestWeightErrorEstimate:
    @pytest.mark.parametrize("x", [0.5 + 0.5 * i for i in range(8)])
    def test_bounds_the_error_on_the_readme_rows(self, x):
        # wcs weight --family wright --alpha 1 --nu 1 --x 0.5:4:8
        got = weight_wright(x, 1.0, 1.0)
        assert abs(got.u_tilde - 2.0 * sp.k0(2.0 * math.sqrt(x))) <= got.abs_err_est

    def test_at_least_one_ulp_of_a_subnormal_value(self):
        # 30-digit mpmath, integrated in log t around the peak
        ref = mpmath.mpf("6.0124547738477188794669e-316")
        got = weight_wright(100.0, 0.1, 0.05)
        assert got.abs_err_est >= math.ulp(got.u_tilde)
        assert abs(mpmath.mpf(got.u_tilde) - ref) <= got.abs_err_est
