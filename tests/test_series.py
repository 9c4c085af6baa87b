"""Tests for the deformed-exponential series and lattice power series."""

import math
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcs
from wcs import (
    DeformationParams,
    PowerSeries,
    box,
    log_box,
    log_gen_factorial,
    deformed_derivative,
    eigenfunction_residual,
    log_n_derivative,
    log_n_function,
    n_function,
    n_function_derivative,
    wright_w,
)
from wcs import series
from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.factorials import _log_factorials, _table
from wcs.gammafn import _MAX_FINITE_LOG
from wcs.series import (
    _FSUM_MAX,
    _exact_sum,
    _log_falling,
    _log_series,
    _positive_fsum,
)

CLASSICAL = DeformationParams(0.0, 1.0, 0.0)
P011 = DeformationParams(0.0, 1.0, 1.0)


class TestNFunction:
    def test_classical_is_exp(self):
        for x in (-5.0, -1.0, 0.3, 1.0, 5.0, 20.0):
            res = n_function(x, CLASSICAL)
            assert res.value.real == pytest.approx(math.exp(x), rel=1e-12)
            assert res.value.imag == 0.0

    def test_at_zero(self):
        for p in (CLASSICAL, P011, DeformationParams(1, 0.5, 0.5)):
            assert n_function(0.0, p).value == 1.0 + 0.0j

    def test_shifted_classical(self):
        # nu=1: sum x^n/(n+1)! = (e^x - 1)/x
        res = n_function(1.0, P011)
        assert res.value.real == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_complex_argument(self):
        res = n_function(1j, CLASSICAL)
        ref = complex(math.cos(1.0), math.sin(1.0))
        assert abs(res.value - ref) <= 1e-12

    def test_result_metadata(self):
        res = n_function(1.0, CLASSICAL)
        assert res.terms_used > 3
        assert res.tail_bound >= 0.0
        assert not res.cancellation
        assert res.real == res.value.real

    @pytest.mark.parametrize("x, sums", [(3.0, 1), (-3.0, 1), (3j, 2), (1.0 + 1.0j, 2)])
    def test_imaginary_part_summed_only_for_complex_terms(self, monkeypatch, x, sums):
        # at real x, of either sign, the terms are real and their imaginary
        # part is 0 without a sum
        calls = []
        exact_sum = series._exact_sum

        def counted(terms, label):
            calls.append(len(terms))
            return exact_sum(terms, label)

        monkeypatch.setattr(series, "_exact_sum", counted)
        for f in (n_function, wright_w):
            calls.clear()
            value = f(x, P011).value
            assert len(calls) == sums
            if sums == 1:
                assert math.copysign(1.0, value.imag) == 1.0 and value.imag == 0.0

    def test_cancellation_flag(self):
        assert n_function(-40.0, CLASSICAL).cancellation
        assert not n_function(-1.0, CLASSICAL).cancellation

    def test_overflow_directs_to_log_variant(self):
        with pytest.raises(NumericalRangeError, match="log"):
            n_function(800.0, CLASSICAL)

    @pytest.mark.parametrize("x", [-800.0, 700.0 + 500.0j])
    def test_overflow_off_the_positive_axis_names_no_variant(self, x):
        # no log-scale function sums N at negative or complex x
        with pytest.raises(NumericalRangeError) as err:
            n_function(x, CLASSICAL, tol=1e-15)
        assert str(err.value) == "n_function: terms or their sum beyond double range"

    def test_max_terms_exhaustion(self):
        with pytest.raises(ConvergenceError):
            n_function(50.0, CLASSICAL, max_terms=10)

    @pytest.mark.parametrize("x, terms", [(1.0, 18), (-1.0, 18), (2.5 + 1j, 25), (-10.0, 50)])
    def test_terms_used_pinned(self, x, terms):
        # the stopping rule of the hand-written sum this kernel replaced
        assert n_function(x, CLASSICAL).terms_used == terms

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_classical_addition_law(self, x, y):
        nx = n_function(x, CLASSICAL).value.real
        ny = n_function(y, CLASSICAL).value.real
        nxy = n_function(x + y, CLASSICAL).value.real
        assert nx * ny == pytest.approx(nxy, rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.4, max_value=1.0),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_positive_for_nonnegative_x(self, a, b, dv, x):
        p = DeformationParams(a, b, (a - 1.0) + dv)
        assert n_function(x, p).value.real > 0.0


class TestLogPaths:
    def test_classical_identity(self):
        assert log_n_function(800.0, CLASSICAL) == pytest.approx(800.0, abs=1e-9)

    def test_matches_linear_path(self):
        for p in (CLASSICAL, P011, DeformationParams(0.5, 0.5, 0.25)):
            for x in (0.5, 10.0):
                ref = math.log(n_function(x, p).value.real)
                assert log_n_function(x, p) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_log_derivative_classical(self):
        for r in (1, 2):
            assert log_n_derivative(700.0, r, CLASSICAL) == pytest.approx(
                700.0, abs=1e-8
            )

    def test_negative_x_rejected(self):
        with pytest.raises(ParameterError):
            log_n_function(-1.0, CLASSICAL)


def _reference_stop(x, p, tol, r=0):
    """The stopping rule as a scalar loop over a positive series with first
    term 1: term n (after the first) is t_(n-1) x/[n] * n/(n-r); stop after
    three consecutive terms <= tol * max(1, S_n) with ratio < 0.9.  Returns
    the number of terms kept and log S."""
    lx = math.log(x)
    log_t = log_s = 0.0
    streak = 0
    n = r
    while True:
        log_ratio = lx + math.log((n + 1) / (n + 1 - r)) - log_box(n + 1, p)
        if log_t <= math.log(tol) + max(0.0, log_s) and log_ratio < math.log(0.9):
            streak += 1
            if streak == 3:
                return n - r + 1, log_s
        else:
            streak = 0
        n += 1
        log_t += log_ratio
        hi, lo = max(log_s, log_t), min(log_s, log_t)
        log_s = hi + math.log1p(math.exp(lo - hi))


class TestSeriesKernel:
    TRIPLES = [CLASSICAL, P011, DeformationParams(1, 0.5, 1), DeformationParams(0, 0.5, 0),
               DeformationParams(0.5, 0.7, 0.2), DeformationParams(1, 1, 0.5)]
    XS = (0.05, 0.7, 3.0, 25.0)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_stops_where_the_scalar_rule_stops(self, r):
        for p in self.TRIPLES:
            for x in self.XS:
                want_terms, want_log = _reference_stop(x, p, 1e-12, r)
                s = _log_series(math.log(x), p, 1e-12, 10000, "test", r)
                assert len(s.log_terms) == want_terms
                assert s.log_sum == pytest.approx(want_log, rel=1e-12, abs=1e-12)
                first = math.lgamma(r + 1.0) - log_gen_factorial(r, p)
                got = log_n_function(x, p) if r == 0 else log_n_derivative(x, r, p)
                assert got == pytest.approx(first + want_log, rel=1e-12, abs=1e-12)

    def test_budget_is_exact(self):
        p = DeformationParams(0.5, 0.7, 0.2)
        terms, _ = _reference_stop(30.0, p, 1e-12)
        log_n_function(30.0, p, max_terms=terms)
        with pytest.raises(ConvergenceError, match="log_n_function"):
            log_n_function(30.0, p, max_terms=terms - 1)
        terms, _ = _reference_stop(30.0, p, 1e-12, r=2)
        log_n_derivative(30.0, 2, p, max_terms=terms)
        with pytest.raises(ConvergenceError, match="log_n_derivative"):
            log_n_derivative(30.0, 2, p, max_terms=terms - 1)

    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_log_terms_read_the_factorial_column(self, start):
        # log t_n = (n - start) log x - (log [n]! - log [start]!) + F(n) - F(start),
        # elementwise from the table's column, bit for bit
        for p in self.TRIPLES:
            for x in self.XS + (60.0,):
                lx = math.log(x)
                s = _log_series(lx, p, 1e-13, 100000, "test", start or None)
                n = np.arange(start, start + len(s.log_terms), dtype=float)
                lf = _log_factorials(p, start + len(s.log_terms))[start:-1]
                want = (n - start) * lx - (lf - lf[0])
                if start:
                    f = _log_falling(start, n)
                    want += f - f[0]
                assert np.array_equal(s.log_terms, want), (p, x)

    @pytest.mark.parametrize("k0", [0, 1, 2, 7])
    def test_signs_at_either_parity(self, k0):
        # (-1)^k from k0's parity, as floats, at lengths up to past a block
        block = series._MAX_BLOCK
        for n in (0, 1, 2, 5, block - 1, block, block + 3):
            got = series._phases(-1.0, k0, n)
            want = [(-1.0) ** k for k in range(k0, k0 + n)]
            assert got.dtype == np.float64 and got.tolist() == want
        assert series._phases(1.0, k0, 5) == 1.0
        # N(-1.3) at beta = 0.05 keeps 31 257 terms, in more than one block
        p = DeformationParams(0.0, 0.05, 0.0)
        res = n_function(-1.3, p, max_terms=10**6)
        log_t = series._memo_read(math.log(1.3), p, 1e-12, 10**6, "", phase=-1.0).log_terms
        assert res.terms_used == len(log_t) > block
        signs = np.where(np.arange(len(log_t)) & 1, -1.0, 1.0)
        assert res.value.real == math.fsum((np.exp(log_t) * signs).tolist())

    def test_block_boundaries_move_no_log_term(self, monkeypatch):
        # the same series in blocks of 2 to 16 terms: the log-terms and the
        # stopping index do not move; a positive log-sum, rescaled at each
        # block, moves by at most 4 ulp
        def positive():
            return [
                _log_series(math.log(x), p, 1e-13, 100000, "test", r or None)
                for p in self.TRIPLES for x in self.XS + (60.0,) for r in (0, 2)
            ]

        whole_sums = positive()
        monkeypatch.setattr(series, "_FIRST_BLOCK", 2)
        monkeypatch.setattr(series, "_MAX_BLOCK", 16)
        sums = positive()
        for one, blocks in zip(whole_sums, sums):
            assert np.array_equal(blocks.log_terms, one.log_terms)
        for one, blocks in zip(whole_sums, sums):
            assert abs(blocks.log_sum - one.log_sum) <= 4 * math.ulp(one.log_sum)

    def test_convergence_error_names_where_the_terms_peak(self):
        # n* = x^(1/(alpha+beta)) / beta, or the first term's n where
        # n* is within one of it; the same text from a cold run and from a
        # memo hit longer than the caller's budget
        p = DeformationParams(0.0, 0.3, 0.5)
        head = "no convergence to tol=1e-12 within 10000 terms; its terms peak near n"
        with pytest.raises(ConvergenceError) as err:
            log_n_function(20.0, p)
        assert str(err.value) == f"log_n_function: {head} ~ 7.24e+04"
        assert 20.0 ** (1.0 / 0.3) / 0.3 == pytest.approx(7.24e4, rel=1e-3)
        with pytest.raises(ConvergenceError) as err:
            log_n_function(1e300, DeformationParams(0.0, 0.1, 0.0))
        assert str(err.value) == f"log_n_function: {head} ~ 10^3001"
        with pytest.raises(ConvergenceError) as err:
            log_n_derivative(1e-3, 5, p, max_terms=1)
        assert str(err.value).endswith("within 1 terms; its terms peak near n ~ 5")
        log_n_function(3.0, p, tol=1e-13)  # keeps 307 terms
        label = wcs.CoherentLabel.from_intensity(3.0)
        with pytest.raises(ConvergenceError) as err:
            wcs.photon_distribution(label, p, max_n=99)
        assert str(err.value) == (
            "photon_distribution: no convergence to tol=1e-13 within 100 terms; "
            "its terms peak near n ~ 130"
        )
        wcs.clear_caches()
        with pytest.raises(ConvergenceError) as cold:
            wcs.photon_distribution(label, p, max_n=99)
        assert str(cold.value) == str(err.value)

    def test_zero_argument_keeps_only_the_first_term(self):
        s = _log_series(-math.inf, P011, 1e-12, 10, "test", 2)
        assert list(s.log_terms) == [0.0]
        assert n_function(0.0, CLASSICAL).terms_used == 1


class TestBlockCount:
    # the photon-stats benchmark's triples and calls at 48 log-spaced x
    TRIPLES = [(0.0, 1.0, 0.0), (0.0, 1.0, 0.5), (1.0, 1.0, 0.5), (1.0, 0.5, 1.0),
               (0.0, 0.5, 0.0), (0.5, 0.7, 0.2), (0.3, 0.9, 1.5), (0.0, 0.3, 0.5)]

    def test_a_pass_takes_one_block(self, monkeypatch):
        # a deterministic work counter: table reads (one per block) of each
        # kernel pass, and the number of passes the sweep makes, each
        # memoised series once.  The first block reaches past where the
        # terms can stop, so a pass takes two blocks at most, or the fewest
        # that _MAX_BLOCK allows
        reads, passes = [0], []
        table, kernel = series._table, series._log_series

        def counted_table(*args):
            reads[0] += 1
            return table(*args)

        def counted_kernel(*args, **kwargs):
            before = reads[0]
            s = kernel(*args, **kwargs)  # a ConvergenceError is not counted
            passes.append((reads[0] - before, len(s.log_terms)))
            return s

        monkeypatch.setattr(series, "_table", counted_table)
        monkeypatch.setattr(series, "_log_series", counted_kernel)
        wcs.clear_caches()
        for triple in self.TRIPLES:
            p = DeformationParams(*triple)
            for x in np.geomspace(0.1, 100.0, 48).tolist():
                label = wcs.CoherentLabel.from_intensity(x)
                for call in (
                    lambda: log_n_function(x, p),
                    lambda: wcs.photon_distribution(label, p),
                    lambda: wcs.mandel_qz(label, p),
                    lambda: wcs.mandel_qm(label, p),
                    lambda: [wcs.normally_ordered_moment(r, label, p) for r in (1, 2)],
                    lambda: [wcs.fock_moment_sum(r, label, p) for r in (1, 2)],
                ):
                    try:
                        call()
                    except ConvergenceError:
                        pass
        wcs.clear_caches()
        assert len(passes) == 1612
        for blocks, terms in passes:
            assert blocks <= max(2, math.ceil(terms / series._MAX_BLOCK)), (blocks, terms)
        assert sum(blocks for blocks, _ in passes) <= 1.05 * len(passes)

    def test_records_carry_their_peak(self, monkeypatch):
        # the same sweep: every record the kernel returns holds the largest
        # of its log-terms as log_top, the kernel's running top at the stop
        records, kernel = [], series._log_series

        def recording_kernel(*args, **kwargs):
            records.append(kernel(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(series, "_log_series", recording_kernel)
        wcs.clear_caches()
        for triple in self.TRIPLES:
            p = DeformationParams(*triple)
            for x in np.geomspace(0.1, 100.0, 48).tolist():
                label = wcs.CoherentLabel.from_intensity(x)
                for call in (
                    lambda: log_n_function(x, p),
                    lambda: wcs.photon_distribution(label, p),
                    lambda: wcs.mandel_qz(label, p),
                    lambda: wcs.mandel_qm(label, p),
                    lambda: [wcs.normally_ordered_moment(r, label, p) for r in (1, 2)],
                    lambda: [wcs.fock_moment_sum(r, label, p) for r in (1, 2)],
                ):
                    try:
                        call()
                    except ConvergenceError:
                        pass
        wcs.clear_caches()
        assert len(records) == 1612
        for s in records:
            assert s.log_top == s.log_terms.max(), (len(s.log_terms), s.log_top)


class TestRefusal:
    # the photon-stats benchmark's failing intensities: the terms still rise
    # at the 10^4-term budget's end, so no term there can be small
    CASES = [((0.0, 0.3, 0.5), 10.4), ((0.0, 0.3, 0.5), 20.0), ((0.0, 0.3, 0.5), 95.6),
             ((0.0, 0.5, 0.0), 68.1), ((0.0, 0.5, 0.0), 95.9)]

    @staticmethod
    def _message(call):
        wcs.clear_caches()
        with pytest.raises(ConvergenceError) as info:
            call()
        return str(info.value)

    @pytest.mark.parametrize("triple, x", CASES)
    @pytest.mark.parametrize("r", [None, 1, 2])
    def test_refused_before_any_stop_search(self, monkeypatch, triple, x, r):
        # a deterministic counter: the refused pass reaches _stop zero
        # times, and raises what the pass summed to the budget's end raises
        p = DeformationParams(*triple)
        if r is None:
            call = lambda: log_n_function(x, p)  # noqa: E731
        else:
            call = lambda: log_n_derivative(x, r, p)  # noqa: E731
        stops, stop = [0], series._stop

        def counted_stop(*args):
            stops[0] += 1
            return stop(*args)

        monkeypatch.setattr(series, "_stop", counted_stop)
        refused = self._message(call)
        assert stops[0] == 0
        assert "no convergence to tol=1e-12 within 10000 terms" in refused
        monkeypatch.setattr(series, "_hopeless", lambda *args: False)
        assert self._message(call) == refused
        assert stops[0] > 0
        wcs.clear_caches()


class TestDerivativeSeries:
    def test_classical_derivatives_are_exp(self):
        for r in (1, 2, 3):
            res = n_function_derivative(1.0, r, CLASSICAL)
            assert res.value.real == pytest.approx(math.e, rel=1e-12)

    def test_leading_coefficient_at_zero(self):
        res = n_function_derivative(0.0, 2, CLASSICAL)
        assert res.value.real == pytest.approx(1.0, rel=1e-13)

    def test_against_central_difference(self):
        h = 1e-5
        d = n_function_derivative(2.0, 1, P011).value.real
        fd = (
            n_function(2.0 + h, P011).value.real - n_function(2.0 - h, P011).value.real
        ) / (2.0 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_zeroth_order_is_the_series_itself(self):
        got = n_function_derivative(2.0, 0, CLASSICAL).value
        assert got == pytest.approx(n_function(2.0, CLASSICAL).value, rel=1e-13)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            n_function_derivative(1.0, -1, CLASSICAL)

    @pytest.mark.parametrize("x", [0.5, -0.5, 0.5j, 0.5 + 0.5j])
    def test_first_term_beyond_double_range_is_typed(self, x):
        # log(1000!/[1000]!) ~ 5550 at beta = 0.1: the first term overflows,
        # and times a complex phase it made NaN with a RuntimeWarning
        with pytest.raises(NumericalRangeError, match="double range"):
            n_function_derivative(x, 1000, DeformationParams(0.0, 0.1, 0.0))


class TestWrightW:
    def test_classical(self):
        assert wright_w(1.0, CLASSICAL).value.real == pytest.approx(math.e, rel=1e-12)

    def test_shifted_classical(self):
        assert wright_w(1.0, P011).value.real == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_at_zero(self):
        p = DeformationParams(1.0, 0.5, 0.5)
        assert wright_w(0.0, p).value.real == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_scaling_relation(self):
        p = DeformationParams(0.5, 0.5, 0.25)
        ref = n_function(2.0, p).value.real * math.exp(-math.lgamma(1.0 - 0.5 + 0.25))
        assert wright_w(2.0, p).value.real == pytest.approx(ref, rel=1e-12)

    # at tol 1e-14, where the truncation tail is negligible, the worst
    # relative error on this grid is 5.51e-14, at (0.5, 0.5, 0.25), x = 60;
    # the bound is 1.16 times that.  At the default tol the sum stops with a
    # tail of up to 3.4e-13 of the value left out, which tail_bound states.
    WORST = 6.39e-14

    @pytest.mark.parametrize(
        "triple",
        [(1.0, 0.5, 1.0), (1.0, 1.0, 0.5), (1.0, 0.3, 0.2), (0.3, 0.7, 0.2),
         (0.0, 1.0, 0.5), (0.5, 0.5, 0.25)],
    )
    def test_against_mpmath(self, triple):
        p = DeformationParams(*triple)
        for x in (0.1, 0.5, 2.0, 5.0, 15.0, 30.0, 60.0):
            ref = _mp_wright_w(x, p)
            got = wright_w(x, p, tol=1e-14).value
            assert got.imag == 0.0
            assert abs(got.real - ref) <= self.WORST * ref
            res = wright_w(x, p)
            assert abs(res.value.real - ref) <= self.WORST * ref + res.tail_bound


def _mp_wright_w(x, p, dps=40):
    """sum_n x^n / ([n]! Gamma(1 - alpha + nu)) at dps digits, [n]! from its
    Gamma closed form, until a term drops below 10^-(dps+5) of the running
    sum."""
    with mpmath.workdps(dps):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg, lx = mpmath.loggamma, mpmath.log(x)
        log_prod, eps = mpmath.mpf(0), mpmath.mpf(10) ** (-dps - 5)
        n, term = 0, mpmath.exp(-lg(1 - a + v))
        total = term
        while n <= 10 or term >= eps * total:
            n += 1
            log_prod += lg(b * n + 1 - a) - lg(b * n + 1)
            term = mpmath.exp(n * lx + log_prod - lg(b * n + 1 - a + v))
            total += term
        return float(total)


class TestErfcClosedForm:
    def test_log_n_at_half_beta_against_erfc(self):
        # at (0, 1/2, 0), [n]! = Gamma(n/2 + 1), so N(x) = e^(x^2) erfc(-x).
        # At tol 1e-14 what is left is the rounding of log t_n =
        # n log x - log [n]!, 4.7e-12 (1.2e-15 relative) at x = 61.5.  At the
        # default tol the sum also leaves out its tail, which the stopping
        # rule (ratio below 0.9) bounds by 9 tol of the sum: 6.2e-12 at
        # x = 29.5
        p = DeformationParams(0.0, 0.5, 0.0)
        with mpmath.workdps(40):
            for x in np.linspace(0.5, 63.0, 126).tolist():
                ref = mpmath.mpf(x) ** 2 + mpmath.log(mpmath.erfc(-x))
                assert abs(log_n_function(x, p, tol=1e-14) - ref) <= 5e-12, x
                assert abs(log_n_function(x, p) - ref) <= 5e-12 + 9 * 1e-12, x


class TestPowerSeries:
    def test_evaluation_matches_horner(self):
        f = PowerSeries((1.0, 2.0, 0.5), 1.0)
        for x in (0.0, 0.3, 1.7):
            assert f(x) == pytest.approx(1.0 + 2.0 * x + 0.5 * x * x, rel=1e-14)

    def test_fractional_lattice(self):
        f = PowerSeries((0.0, 1.0), 0.5)
        assert f(4.0) == pytest.approx(2.0, rel=1e-14)

    def test_terms_beyond_double_range_raise(self):
        # 100^j overflows from j = 155: inf - inf made fsum raise ValueError
        with pytest.raises(NumericalRangeError, match="PowerSeries at x = 100.0"):
            PowerSeries((1.0, -1.0) * 200, 1.0)(100.0)
        # and an all-positive series returned inf
        with pytest.raises(NumericalRangeError, match="double range"):
            PowerSeries((1.0,) * 400, 1.0)(1e200)

    def test_lattice_point_beyond_double_range_raises(self):
        # 1e200^2 overflows in x ** beta itself, which raised a builtin
        # OverflowError; every term past the first is beyond range
        with pytest.raises(NumericalRangeError, match=r"^PowerSeries at x = 1e\+200: terms"):
            PowerSeries((1.0, 1.0), 2.0)(1e200)
        with pytest.raises(NumericalRangeError, match=r"^PowerSeries at x = 1e\+200: terms"):
            PowerSeries((1.0, 0.0), 2.0)(1e200)
        # a constant needs no power of x
        assert PowerSeries((1.0,), 2.0)(1e200) == 1.0

    def test_sum_beyond_double_range_raises(self):
        with pytest.raises(NumericalRangeError, match="double range"):
            PowerSeries((1e308, 1e308), 1.0)(1.0)

    def test_empty_series_is_zero(self):
        assert PowerSeries((), 1.0)(1e200) == 0.0 and PowerSeries((), 0.5)(0.0) == 0.0

    @pytest.mark.parametrize(
        "coeffs, y",
        [((1.0, 1e308, 1e308), 10.0),  # a term overflows, its power does not
         ((1.0, math.inf), 0.0),  # inf * 0 is NaN
         ((1.0, math.nan), 0.5),
         ((1.0, 2.0, 3.0), 1e200),  # a power overflows
         ((1.0, -2.0), 1e300),  # within range by a bound of 691.5
         ((1.0, 1.0, 1.0), math.exp((_MAX_FINITE_LOG - 1.0001) / 2.0)),
         ((1.0, 1.0, 1.0), 1e154),  # 1e308 fits, past the bound
         ((1.0, 1.0, 1.0), math.exp((_MAX_FINITE_LOG + 0.5) / 2.0)),  # y^2 just past range
         ((5.0,), math.inf), ((5.0, 1.0), math.inf), ((0.5, 0.25), 1.0)],
    )
    def test_bounded_lattice_sum_equals_the_silenced_sum(self, coeffs, y):
        # with log max |c_j| passed, the sum runs with numpy's warnings on
        # where no power or term can leave double range, silenced where one
        # can; either way it has the outcome of the sum that always silences
        # them, and warns nothing (pytest makes a RuntimeWarning an error)
        c = np.array(coeffs)
        top = float(np.max(np.abs(c)))
        log_top = math.log(top) if math.isfinite(top) else math.inf
        label = ("lattice at y = {}", y)

        def outcome(*bound):
            try:
                total, cancel = series._lattice_sum(c, y, label, *bound)
            except NumericalRangeError as exc:
                return str(exc)
            return total.hex(), cancel

        assert outcome(log_top) == outcome()

    @pytest.mark.parametrize("coeffs", [("a",), (1.0, None), (1.0, True), (1.0, 2j), ("1.5",)])
    def test_non_numeric_coefficients_are_refused(self, coeffs):
        # at construction: numpy once raised an untyped ValueError or
        # TypeError at evaluation, or read "1.5" and None as numbers
        with pytest.raises(ParameterError, match="^coeffs must be real numbers"):
            PowerSeries(coeffs, 1.0)

    @pytest.mark.parametrize("coeffs", [(10**400,), (1.0, -(10**400))])
    def test_int_coefficient_past_double_range_raises_typed(self, coeffs):
        # numpy's float conversion once raised its untyped OverflowError;
        # now it is an infinite term, with a float inf coefficient's error
        with pytest.raises(NumericalRangeError, match=r"^PowerSeries at x = 1.0: terms or"):
            PowerSeries(coeffs, 1.0)(1.0)

    def test_fields_are_stored_as_given(self):
        f = PowerSeries((1, np.float64(2.0), math.inf), 1)
        assert type(f.beta) is int and [type(c) for c in f.coeffs] == [int, np.float64, float]
        # a non-finite coefficient is refused where the series is evaluated
        with pytest.raises(NumericalRangeError, match="double range"):
            f(0.5)

    def test_shifted_up_prepends_zero(self):
        f = PowerSeries((1.0, 2.0), 1.0)
        assert f.shifted_up().coeffs == (0.0, 1.0, 2.0)

    def test_derivative_classical_monomial(self):
        d = deformed_derivative(PowerSeries((0.0, 1.0), 1.0), CLASSICAL)
        assert d.coeffs == pytest.approx((1.0,))

    def test_derivative_of_constant_is_empty(self):
        d = deformed_derivative(PowerSeries((5.0,), 1.0), CLASSICAL)
        assert d.coeffs == ()

    def test_derivative_of_empty_series_is_empty_cold_and_warm(self):
        # on a triple without a table it once raised an untyped IndexError
        p, empty = DeformationParams(0.3, 0.5, 0.2), PowerSeries((), 0.5)
        wcs.clear_caches()
        assert deformed_derivative(empty, p) == empty
        _table(p, 10)
        assert deformed_derivative(empty, p) == empty

    def test_derivative_wright_monomial(self):
        p = DeformationParams(1.0, 1.0, 1.0)
        d = deformed_derivative(PowerSeries((0.0, 0.0, 1.0), 1.0), p)
        assert d.coeffs == pytest.approx((0.0, 4.0), rel=1e-6, abs=0)

    def test_derivative_weights_are_boxes(self):
        p = DeformationParams(0.5, 0.5, 0.25)
        f = PowerSeries((1.0, 1.0, 1.0, 1.0), 0.5)
        d = deformed_derivative(f, p)
        assert d.coeffs == pytest.approx(tuple(box(k, p) for k in (1, 2, 3)), rel=1e-13)

    def test_beta_mismatch_rejected(self):
        f = PowerSeries((0.0, 1.0), 1.0)
        with pytest.raises(ParameterError):
            deformed_derivative(f, DeformationParams(0.0, 0.5, 0.0))


class TestEigenfunctionResidual:
    def test_classical_exponential(self):
        assert eigenfunction_residual(1.0, 0.5, CLASSICAL) <= 1e-10

    def test_shifted_classical(self):
        assert eigenfunction_residual(2.0, 1.0, P011) <= 1e-8

    def test_wright_lattice(self):
        assert eigenfunction_residual(1.0, 0.25, DeformationParams(1, 0.5, 1)) <= 1e-8

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            eigenfunction_residual(0.0, 1.0, CLASSICAL)
        with pytest.raises(ParameterError):
            eigenfunction_residual(1.0, -1.0, CLASSICAL)


class TestPositiveFsum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-745.0, max_value=0.0), max_size=300))
    def test_equal_to_fsum_over_every_term(self, logs):
        # terms from 1 down to below the smallest subnormal
        terms = np.exp(np.array(logs, dtype=float))
        assert _positive_fsum(terms, (_RANGE, "a", len(terms))) == math.fsum(terms.tolist())

    @staticmethod
    def _split(terms):
        # the big terms and the float sum of the negligible ones, even when
        # there are none, as _positive_fsum always summed them
        big = terms >= terms.max() * series._NEGLIGIBLE / len(terms)
        split = np.concatenate((terms[big], [terms[~big].sum()]))
        return _exact_sum(split, (_RANGE, "a", len(terms))), bool(big.all())

    @pytest.mark.parametrize("negligible", [False, True])
    def test_equal_to_the_split_path(self, negligible):
        # lengths 1-1000, and either side of _FSUM_MAX as is and with the
        # negligible terms' one sum appended; log-terms down to e^-60 are
        # never negligible, down to e^-745 some are (below 2^-106 / n)
        rng = np.random.default_rng(30)
        lengths = [1, 2, _FSUM_MAX - 1, _FSUM_MAX, _FSUM_MAX + 1, 1000,
                   *rng.integers(1, 1001, 60).tolist()]
        for n in lengths:
            low = 745.0 if negligible else 60.0
            terms = np.exp(-rng.uniform(0.0, low, n))
            if negligible and n > 1:
                terms[-1] = 1e-300
            want, none_negligible = self._split(terms)
            assert none_negligible is (not negligible or n == 1)
            assert _positive_fsum(terms, (_RANGE, "a", n)).hex() == want.hex()


    @pytest.mark.parametrize("special", [math.inf, math.nan])
    def test_non_finite_term_refused_before_a_float_sum(self, special):
        # with an infinite largest term every finite term is negligible, and
        # their float sum overflowed with a numpy warning (an error under
        # pytest's filter) before the range error
        terms = np.array([special, 1e308, 1e308, 1e-300])
        with pytest.raises(NumericalRangeError, match=r"^lbl 1$"):
            _positive_fsum(terms, ("lbl {}", 1))


def _outcome(f, *args):
    """f(*args) as its bits (every NaN as one value), or as the type and
    message of the error it raises."""
    try:
        v = f(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)
    return "nan" if math.isnan(v) else struct.pack("<d", v)


_RANGE = "sum {} of {} terms"  # the range errors' label here


def _fsum_outcome(terms: np.ndarray):
    """The outcome _exact_sum(terms, (_RANGE, "a", len(terms))) must have:
    math.fsum's bits where they are finite, else the range error, where
    fsum returns inf or NaN or raises."""
    want = _outcome(math.fsum, terms.tolist())
    if isinstance(want, bytes) and math.isfinite(struct.unpack("<d", want)[0]):
        return want
    return NumericalRangeError, _RANGE.format("a", len(terms))


_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 1.7e308, -1.7e308)
_NON_FINITE = (math.inf, -math.inf, math.nan)


@st.composite
def _term_arrays(draw, signed: bool, finite: bool) -> np.ndarray:
    """Arrays of length 0 to 3000, often near _FSUM_MAX.  Their exponents
    spread up to 600 binades either side of a centre anywhere from the
    subnormals to the overflow threshold; or such terms come with their
    negatives but one, a half-ulp tie on that one and tiny terms that break
    the tie, so the sum hangs on the lowest bits; or all are 0.0 or -0.0.
    Up to four special terms (zeros, subnormals, near-overflow terms, and
    unless finite, infinities and NaN) are set in at random places."""
    n = draw(st.one_of(st.integers(0, 3000), st.integers(_FSUM_MAX - 3, _FSUM_MAX + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "tie" if signed else "spread", "0.0", "-0.0"]))
    if kind in ("spread", "tie"):
        centre = draw(st.one_of(st.integers(-1100, 1023), st.integers(1000, 1023)))
        spread = draw(st.integers(0, 600))
        m = n if kind == "spread" else n // 2
        exps = np.clip(rng.integers(centre - spread, centre + spread + 1, m), -1100, 1023)
        terms = np.ldexp(rng.uniform(1.0, 2.0, m), exps)
        if signed:
            terms *= rng.choice([-1.0, 1.0], m)
        if kind == "tie" and m:
            e = math.frexp(terms[0])[1] - 54
            depth = rng.integers(1, 400, 3)
            tiny = np.ldexp(rng.uniform(1.0, 2.0, 3), e - depth) * rng.choice([-1.0, 1.0], 3)
            tie = math.copysign(math.ldexp(1.0, e), terms[0])
            terms = rng.permutation(np.concatenate([terms, -terms[1:], [tie], tiny]))
    else:
        terms = np.full(n, float(kind))
    if len(terms):
        pool = _SPECIALS if finite else _SPECIALS + _NON_FINITE
        specials = draw(st.lists(st.sampled_from(pool), max_size=4))
        terms[rng.integers(0, len(terms), len(specials))] = specials
    return terms if signed else np.abs(terms)


class TestExactSums:
    """_exact_sum, and _positive_fsum above it, return math.fsum's double
    bit for bit where it is finite, and raise NumericalRangeError with
    their label where fsum returns inf or NaN or raises, on arrays either
    side of _FSUM_MAX, and never write to their input."""

    @settings(max_examples=300, deadline=None)
    @given(_term_arrays(signed=True, finite=False))
    def test_exact_sum_equal_to_fsum(self, terms):
        want = _fsum_outcome(terms)
        kept = terms.tobytes()
        terms.flags.writeable = False  # as the memo's log-terms are
        assert _outcome(_exact_sum, terms, (_RANGE, "a", len(terms))) == want
        assert terms.tobytes() == kept

    @settings(max_examples=200, deadline=None)
    @given(_term_arrays(signed=False, finite=True))
    def test_positive_fsum_equal_to_fsum(self, terms):
        # the terms of a positive series: finite and never negative
        terms.flags.writeable = False
        assert _outcome(_positive_fsum, terms, (_RANGE, "a", len(terms))) == _fsum_outcome(terms)

    @pytest.mark.parametrize("f", [_exact_sum, _positive_fsum])
    @pytest.mark.parametrize("n", [2, _FSUM_MAX, _FSUM_MAX + 1, 3000])
    @pytest.mark.parametrize("special", [math.inf, math.nan, 1e308])
    def test_out_of_range_raises(self, f, n, special):
        # two infinite or NaN terms, or two finite ones whose sum passes
        # double range, among halves; fsum returns inf or NaN, or raises
        # OverflowError, and the sums raise their labelled range error
        terms = np.full(n, 0.5)
        terms[[0, n // 2]] = special
        with pytest.raises(NumericalRangeError, match=rf"^sum a of {n} terms$"):
            f(terms, (_RANGE, "a", n))

    @pytest.mark.parametrize("r", [*range(9), 12, 40])
    def test_falling_factors_equal_to_2d_forms(self, r, monkeypatch):
        # the row sums numpy's axis reduction gave over one (len(n), r)
        # array, n from r as the derivative series start, also where the
        # rows are summed a few at a time, across many chunk boundaries;
        # the sum of 8 or more logs is that reduction, which adds pairwise
        n = np.arange(r, 100001, dtype=float)
        want = np.log(n[:, None] - np.arange(r)).sum(axis=1).tobytes()
        assert _log_falling(r, n).tobytes() == want
        monkeypatch.setattr(series, "_FALLING_CHUNK", 100)
        assert _log_falling(r, n).tobytes() == want

    def test_high_order_falling_factor_memory_is_bounded(self):
        # the 200 000th derivative's factor is summed in chunks: no
        # (rows, r) temporary, which took about 200 MB; the series is not
        # memoised and the table is built before tracing starts
        p = CLASSICAL
        wcs.clear_caches()
        _table(p, 400_000)
        tracemalloc.start()
        try:
            log_n_derivative(0.5, 200_000, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("r", [1, 2, 7, 8, 12, 40])
    def test_falling_factors_within_rounding(self, r):
        # against 40 digits: a sum of r logs is within r - 1 roundings of
        # the sum and a few ulp of each log
        n = np.unique(np.concatenate([np.arange(r, r + 30), np.geomspace(r + 30, 1e5, 40).round()]))
        logs = _log_falling(r, n)
        with mpmath.workdps(40):
            for m, f in zip(n.tolist(), logs.tolist()):
                f_want = mpmath.fsum(mpmath.log(mpmath.mpf(m - j)) for j in range(r))
                assert abs(f - f_want) <= (r + 8) * 2.0**-53 * f_want
