"""Tests for the log-gamma kernel and signed log-scale values."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcs import LogValue, log_gamma, gamma_signed
from wcs.errors import NumericalRangeError, ParameterError
from wcs.gammafn import (
    _BERNOULLI,
    _RATIO_TERMS,
    _SERIES_MIN_ARG,
    _horner,
    _ratio_coefficients,
    _ratio_series,
    _stirling_log_gamma,
)


def _lg_error(value, x):
    """|value - log|Gamma(x)|| / max(1, |log|Gamma(x)||) against 40-digit mpmath."""
    with mpmath.workdps(40):
        ref = mpmath.log(abs(mpmath.gamma(mpmath.mpf(x))))
        return float(abs(value - ref) / max(1, abs(ref)))


# the worst error of log_gamma and gamma_signed on the grids below, 5.17e-16
# (gamma_signed at -7.75), rounded up
LG_WORST = 5.5e-16


class TestLogGamma:
    def test_integer_factorials(self):
        for n in range(1, 171):
            assert _lg_error(log_gamma(float(n + 1)), n + 1) <= LG_WORST

    def test_exact_at_one_and_two(self):
        assert log_gamma(1.0) == 0.0 == log_gamma(2.0)

    def test_half_integer(self):
        for x in (0.5, 1.5):
            assert _lg_error(log_gamma(x), x) <= LG_WORST

    def test_against_mpmath_on_log_grid(self):
        for x in np.geomspace(1e-6, 1e6, 211):
            assert _lg_error(log_gamma(float(x)), x) <= LG_WORST

    def test_below_one_half(self):
        for x in (1e-8, 1e-4, 0.1, 0.25, 0.49):
            assert _lg_error(log_gamma(x), x) <= LG_WORST

    @pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310, sys.float_info.min])
    def test_subnormal_arguments(self, x):
        # log Gamma(x) is -log x to double precision below the least normal
        # double (the next term, -gamma x, is below 2^-1022)
        with mpmath.workdps(40):
            ref = mpmath.loggamma(mpmath.mpf(x))
        assert abs(log_gamma(x) - ref) <= 2.2e-16 * abs(ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, -10.25])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ParameterError):
            log_gamma(bad)

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _ratio_series_stepwise(w, d, coeffs):
    """_ratio_series with its shift steps added one step of every row at a
    time, in order of the step."""
    shifts = np.maximum(np.ceil(_SERIES_MIN_ARG - w), 0.0)
    steps = 0.0
    for i in range(int(shifts.max(initial=0.0))):
        x = w + i
        steps = steps + np.where(i < shifts, d * np.log1p(1.0 / x) - np.log1p(d / x), 0.0)
    y = 1.0 / (w + shifts)
    return _horner(coeffs, y) * y + steps


class TestRatioSeriesShifts:
    """The shift steps below _SERIES_MIN_ARG, taken on one grid."""

    def test_grid_adds_as_the_stepwise_loop(self):
        # each row's steps in order of the step, as a loop over the steps
        # adds them: the bits that every table entry from k0 on depends on
        rng = np.random.default_rng(27)
        for _ in range(300):
            d = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            w = np.concatenate((rng.uniform(1e-3, 20.0, 40), 10.0 ** rng.uniform(-8, 1, 10)))
            coeffs = _ratio_coefficients(d)
            assert _ratio_series(w, d, coeffs).tobytes() == _ratio_series_stepwise(w, d, coeffs).tobytes()

    @pytest.mark.parametrize("d", [1.0, 0.5, 0.05, 1e-3])
    def test_subnormal_arguments(self, d):
        # 1/w overflows below about 5.6e-309, so the first step is taken
        # in a form without it
        w = np.array([5e-324, 1e-310, 6e-309, 2e-308, 1e-307])
        got = _ratio_series(w, d, _ratio_coefficients(d))
        with mpmath.workdps(40):
            for wi, g in zip(w.tolist(), got.tolist()):
                wi = mpmath.mpf(wi)
                ref = mpmath.loggamma(wi + d) - mpmath.loggamma(wi) - d * mpmath.log(wi)
                assert abs(g - ref) <= 4e-15 * max(1, abs(ref))


class TestSeries:
    """The Bernoulli table and the two series the factorial tables use from
    _SERIES_MIN_ARG on, against mpmath."""

    def test_bernoulli_table(self):
        for k, (num, den) in enumerate(_BERNOULLI):
            assert (num, den) == mpmath.bernfrac(k)

    @pytest.mark.parametrize("d", [0.0, 1.0, 0.5, 0.3, 0.05, 0.999, 1e-3, 0.123456789])
    def test_ratio_coefficients(self, d):
        got = _ratio_coefficients(d)
        assert len(got) == _RATIO_TERMS
        with mpmath.workdps(40):
            for j, c in enumerate(got, start=1):
                n = j + 1
                ref = (-1) ** n * (mpmath.bernpoly(n, d) - mpmath.bernoulli(n)) / (j * n)
                # |B_n(x)| <= 2 zeta(n) n! / (2 pi)^n on [0, 1] bounds |c_j|:
                # the Horner sum of d (d - 1) q_j(d) is held to ulps of that
                bound = 4 * mpmath.zeta(n) * mpmath.factorial(n) / ((2 * mpmath.pi) ** n * j * n)
                assert abs(ref) <= bound
                assert abs(c - ref) <= 4e-16 * bound
        if d in (0.0, 1.0):
            assert got == (0.0,) * _RATIO_TERMS

    def test_stirling_log_gamma(self):
        z = np.concatenate(([_SERIES_MIN_ARG], np.geomspace(_SERIES_MIN_ARG, 1e7, 200)))
        for scale in (1.0, 0.5, 0.05):
            got = _stirling_log_gamma(z, scale)
            with mpmath.workdps(40):
                for zi, g in zip(z.tolist(), got.tolist()):
                    lg, power = mpmath.loggamma(zi), (zi - 1) * mpmath.log(scale)
                    # at scale < 1 the two parts cancel: held to their size
                    assert abs(g - (lg + power)) <= 4e-16 * (lg + abs(power))

    @pytest.mark.parametrize("d", [1.0, 0.5, 0.3, 0.05, 0.999, 1e-3])
    def test_ratio_series_on_both_sides_of_the_shift(self, d):
        w = np.concatenate(
            (np.geomspace(1e-3, _SERIES_MIN_ARG, 60), np.geomspace(_SERIES_MIN_ARG, 1e6, 60))
        )
        got = _ratio_series(w, d, _ratio_coefficients(d))
        if d == 1.0:  # log Gamma(w + 1) - log Gamma(w) = log w
            assert not got.any()
            return
        eps = sys.float_info.epsilon
        with mpmath.workdps(40):
            for wi, g in zip(w.tolist(), got.tolist()):
                # below z0, each of the m steps up rounds to ulps of d/x, so
                # they are held to ulps of their size, d log((w + m) / w)
                steps = d * math.log1p(max(0.0, math.ceil(_SERIES_MIN_ARG - wi)) / wi)
                wi = mpmath.mpf(wi)
                ref = mpmath.loggamma(wi + d) - mpmath.loggamma(wi) - d * mpmath.log(wi)
                assert abs(g - ref) <= 4 * eps * (abs(ref) + steps)


class TestGammaSigned:
    def test_positive_arguments(self):
        for x in (0.5, 1.0, 3.7, 12.0):
            sign, log_abs = gamma_signed(x)
            assert sign == 1
            assert _lg_error(log_abs, x) <= LG_WORST

    def test_negative_arguments_match_gamma(self):
        for x in (-0.5, -1.5, -2.5, -3.25, -7.75):
            sign, log_abs = gamma_signed(x)
            assert sign == mpmath.sign(mpmath.gamma(x))
            assert _lg_error(log_abs, x) <= LG_WORST

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -17.0])
    def test_poles_rejected(self, pole):
        with pytest.raises(ParameterError):
            gamma_signed(pole)


class TestLogValue:
    def test_roundtrip(self):
        for x in (3.0, -2.5, -1e250):
            lv = LogValue.from_float(x)
            assert lv.to_float() == pytest.approx(x, rel=1e-15)
        # log 1e-300 = -690.8 is stored to eps/2 of itself, and exp turns
        # that absolute error into a relative one: |ln x| eps/2, twice over
        x = 1e-300
        eps = sys.float_info.epsilon
        assert LogValue.from_float(x).to_float() == pytest.approx(
            x, rel=2.0 * abs(math.log(x)) * eps, abs=0
        )

    def test_zero(self):
        lv = LogValue.from_float(0.0)
        assert lv.sign == 0
        assert lv.to_float() == 0.0

    def test_signs(self):
        assert LogValue.from_float(-3.0).sign == -1
        assert LogValue.from_float(3.0).sign == 1

    def test_multiplication_and_division(self):
        a = LogValue.from_float(-6.0)
        b = LogValue.from_float(1.5)
        assert (a * b).to_float() == pytest.approx(-9.0, rel=1e-14)
        assert (a / b).to_float() == pytest.approx(-4.0, rel=1e-14)

    def test_overflow_raises(self):
        big = LogValue.from_log(800.0)
        assert not big.is_finite_float
        with pytest.raises(NumericalRangeError):
            big.to_float()

    def test_near_max_float_ok(self):
        edge = LogValue.from_log(math.log(sys.float_info.max) - 1.0)
        assert edge.is_finite_float
        assert math.isfinite(edge.to_float())
