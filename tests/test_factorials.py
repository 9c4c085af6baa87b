"""Tests for the box function, generalized factorials, asymptotics, what
the factorial tables cache (columns and linear brackets), and the series
module's memo of series summaries."""

import functools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcs import (
    CoherentLabel,
    DeformationParams,
    PhysicalScales,
    box,
    clear_caches,
    fock_moment_sum,
    gen_double_factorial,
    gen_factorial,
    log_box,
    log_factorial_asymptotic,
    log_gen_double_factorial,
    log_gen_factorial,
    log_n_derivative,
    log_n_function,
    mandel_qm,
    mandel_qz,
    normally_ordered_moment,
    photon_distribution,
    wavefunction_sample,
)
from wcs import coherent, factorials, series
from wcs.cli import main
from wcs.errors import ConvergenceError, ParameterError
from wcs.factorials import (
    _MAX_TABLES,
    _MIN_GROWTH,
    _TABLES,
    _Table,
    _brackets,
    _log_factorials,
    _table,
)
from wcs.gammafn import log_gamma
from wcs.series import _MAX_SUMMARIES

CLASSICAL = DeformationParams(0.0, 1.0, 0.0)

GRID = [
    DeformationParams(a, b, v)
    for a in (0.0, 0.5, 1.0)
    for b in (0.25, 0.5, 1.0)
    for v in (0.1, 0.5, 2.0)
]


class TestParams:
    def test_valid_boundaries(self):
        DeformationParams(0.0, 1.0, 0.0)
        DeformationParams(1.0, 1.0, 0.5)
        DeformationParams(1.0, 0.01, 1e-6)

    @pytest.mark.parametrize(
        "a,b,v",
        [
            (-0.1, 1.0, 0.0),
            (1.1, 1.0, 1.0),
            (0.0, 0.0, 0.0),
            (0.0, 1.2, 0.0),
            (0.0, 1.0, -1.0),
            (1.0, 1.0, 0.0),  # nu must exceed alpha - 1 strictly
            (0.5, 0.5, -0.5),
        ],
    )
    def test_invalid_rejected(self, a, b, v):
        with pytest.raises(ParameterError):
            DeformationParams(a, b, v)

    @pytest.mark.parametrize("a, b, v", [(0.0, 1.0, math.inf), (0.0, 1.0, math.nan), (-math.inf, 1.0, 0.0)])
    def test_non_finite_rejected(self, a, b, v):
        with pytest.raises(ParameterError, match="finite"):
            DeformationParams(a, b, v)

    def test_flags(self):
        assert CLASSICAL.cs_valid
        assert CLASSICAL.complete
        assert not DeformationParams(0.0, 1.0, -0.5).cs_valid
        assert DeformationParams(1.0, 1.0, 2.0).complete  # alpha + beta == 2

    def test_scales_validation(self):
        with pytest.raises(ParameterError):
            PhysicalScales(hbar=0.0)
        with pytest.raises(ParameterError):
            PhysicalScales(mass=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ParameterError, match="finite"):
                PhysicalScales(hbar=bad)
        s = PhysicalScales(2.0, 3.0, 0.7)
        assert s.length_sq == pytest.approx(2.0 / (3.0 * 0.7), rel=1e-14)
        assert s.momentum_sq == pytest.approx(2.0 * 3.0 * 0.7, rel=1e-14)


class TestBox:
    def test_zero_is_zero(self):
        for p in GRID:
            assert box(0, p) == 0.0

    def test_classical_is_n(self):
        for n in range(1, 40):
            assert box(n, CLASSICAL) == pytest.approx(float(n), rel=1e-13)

    def test_wright_point(self):
        # Gamma(3)/Gamma(2) * Gamma(3)/Gamma(2) = 2 * 2
        assert box(2, DeformationParams(1.0, 1.0, 1.0)) == pytest.approx(4.0, rel=1e-13)
        assert box(4, DeformationParams(1.0, 1.0, 1.0)) == pytest.approx(16.0, rel=1e-13)

    def test_ml_point(self):
        # alpha=0: [n] telescopes to Gamma(n+1+nu)/Gamma(n+nu)= n + nu
        p = DeformationParams(0.0, 1.0, 2.0)
        for n in range(1, 10):
            assert box(n, p) == pytest.approx(n + 2.0, rel=1e-13)

    def test_positive_on_grid(self):
        for p in GRID:
            for n in range(1, 30):
                assert box(n, p) > 0.0
                assert math.isfinite(log_box(n, p))

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            box(-1, CLASSICAL)
        with pytest.raises(ParameterError):
            box(1.5, CLASSICAL)


class TestGenFactorial:
    def test_empty_product(self):
        for p in GRID:
            assert gen_factorial(0, p).to_float() == pytest.approx(1.0, rel=1e-14)

    def test_classical_factorials(self):
        for n in range(0, 21):
            got = gen_factorial(n, CLASSICAL).to_float()
            assert got == pytest.approx(float(math.factorial(n)), rel=1e-12)

    def test_frozen_points(self):
        assert gen_factorial(5, CLASSICAL).to_float() == pytest.approx(120.0, rel=1e-12)
        assert gen_factorial(3, DeformationParams(0, 1, 2)).to_float() == pytest.approx(
            60.0, rel=1e-12
        )
        assert gen_factorial(3, DeformationParams(1, 1, 1)).to_float() == pytest.approx(
            36.0, rel=1e-12
        )

    def test_ml_reduction(self):
        # alpha=0: [n]! = Gamma(beta n + 1 + nu) / Gamma(1 + nu)
        for b in (0.3, 0.5, 1.0):
            for v in (0.0, 0.7, 2.0):
                p = DeformationParams(0.0, b, v)
                for n in (1, 5, 17):
                    ref = math.lgamma(b * n + 1 + v) - math.lgamma(1 + v)
                    got = log_gen_factorial(n, p)
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_wright_reduction(self):
        # alpha=1: [n]! = beta^n n! Gamma(beta n + nu) / Gamma(nu)
        for b in (0.4, 1.0):
            for v in (0.5, 1.0, 2.0):
                p = DeformationParams(1.0, b, v)
                for n in (1, 6, 15):
                    ref = (
                        n * math.log(b)
                        + math.lgamma(n + 1)
                        + math.lgamma(b * n + v)
                        - math.lgamma(v)
                    )
                    got = log_gen_factorial(n, p)
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_recurrence(self):
        for p in GRID:
            for n in range(1, 25):
                lhs = log_gen_factorial(n, p)
                rhs = log_box(n, p) + log_gen_factorial(n - 1, p)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.05, max_value=3.0),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=150)
    def test_telescoping_product(self, a, b, dv, n):
        p = DeformationParams(a, b, (a - 1.0) + dv)
        direct = log_gen_factorial(n, p)
        product = sum(log_box(i, p) for i in range(1, n + 1))
        assert abs(direct - product) <= 1e-9 * max(1.0, abs(direct))

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            gen_factorial(-1, CLASSICAL)

    def test_cache_clear_is_transparent(self):
        before = log_gen_factorial(12, GRID[4])
        clear_caches()
        assert log_gen_factorial(12, GRID[4]) == before


@functools.cache
def _scalar_table(p, n):
    """Reference build: one scalar log_gamma per column and index, entry by entry."""
    a, b, v = p.alpha, p.beta, p.nu
    log_box_, log_prod, log_tail = [-math.inf], [0.0], [log_gamma(1.0 - a + v)]
    for k in range(1, n + 1):
        lg_top = log_gamma(b * k + 1.0)
        lg_bot = log_gamma(b * k + 1.0 - a)
        tail = log_gamma(b * k + 1.0 - a + v)
        log_box_.append(lg_top - lg_bot + tail - log_tail[k - 1])
        log_prod.append(log_prod[k - 1] + lg_top - lg_bot)
        log_tail.append(tail)
    return log_box_, log_prod, log_tail


# alpha = 1 with beta = 0.1 and alpha = 0.9 with beta = 0.05 send the
# b k + 1 - alpha arguments below 0.5, into the reflection branch
TABLE_TRIPLES = [
    DeformationParams(1.0, 0.1, 0.5),
    DeformationParams(0.9, 0.05, 0.0),
    CLASSICAL,
    DeformationParams(0.5, 0.5, -0.3),
]


class TestArrayTable:
    """Tables built in array blocks equal the entry-by-entry build bit for bit."""

    @staticmethod
    def _columns(tab):
        return tab.log_box.tolist(), tab.log_prod.tolist(), tab.log_tail.tolist()

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_one_call(self, p):
        tab = _Table(p)
        tab.extend(10_000, p)
        assert self._columns(tab) == _scalar_table(p, 10_000)

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_extended_in_pieces(self, p):
        tab = _Table(p)
        for n in (37, 4096, 4097, 10_000):
            tab.extend(n, p)
        assert self._columns(tab) == _scalar_table(p, 10_000)

    def test_one_scalar_log_gamma_per_cold_table(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return log_gamma(x)

        monkeypatch.setattr(factorials, "log_gamma", counted)
        clear_caches()
        log_gen_factorial(10_000, DeformationParams(0.3, 0.7, 0.2))
        assert len(calls) <= 1  # log_tail[0]

    def test_columns_are_read_only_float64(self):
        tab = _table(TABLE_TRIPLES[3], 100)
        for col in (tab.log_box, tab.log_prod, tab.log_tail):
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert len(col) == len(tab.log_box) > 100
            with pytest.raises(ValueError, match="read-only"):
                col[1] = 0.0

    def test_scalar_accessors_return_float(self):
        p = TABLE_TRIPLES[3]
        for n in (0, 1, 7):
            for f in (log_box, box, log_gen_factorial, log_gen_double_factorial):
                assert type(f(n, p)) is float

    def test_growth_copies_logarithmically(self):
        # grown 64 entries at a time, as a loop over n grows a cold table,
        # the buffers are copied only when full, into twice the capacity
        p = TABLE_TRIPLES[2]
        tab, copies = _Table(p), 0
        for n in range(64, 100_001, 64):
            bufs = tab._bufs
            tab.extend(n, p)
            copies += tab._bufs is not bufs
        assert copies <= math.ceil(math.log2(100_001 / 65))


class TestSequenceReads:
    """_brackets and _log_factorials read whole sequences off the table and
    equal the scalar accessors element for element, bit for bit."""

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_equal_to_scalar_accessors_on_a_table_grown_in_pieces(self, p):
        clear_caches()
        for n in (0, 1, 37, 4096, 4097, 10_000):  # each read grows the table
            got_b, got_f = _brackets(p, n), _log_factorials(p, n)
            assert got_b.dtype == got_f.dtype == np.float64
            assert not got_b.flags.writeable
            assert got_b.tobytes() == np.array([box(k, p) for k in range(n + 1)]).tobytes()
            assert (
                got_f.tobytes()
                == np.array([log_gen_factorial(k, p) for k in range(n + 1)]).tobytes()
            )


class TestTableCache:
    def test_bounded(self):
        clear_caches()
        triples = [DeformationParams(0.5, 0.1 + 0.004 * i, 0.5) for i in range(200)]
        for p in triples:
            log_box(3, p)
        assert _MAX_TABLES == 64
        assert len(_TABLES) == 64
        # the oldest-inserted tables went first
        assert triples[0] not in _TABLES
        assert triples[-1] in _TABLES

    def test_rebuilt_table_is_bitwise_equal(self):
        p = TABLE_TRIPLES[0]
        clear_caches()
        first = tuple(list(c) for c in TestArrayTable._columns(_table(p, 5000)))
        for i in range(_MAX_TABLES):
            log_box(3, DeformationParams(0.2, 0.1 + 0.01 * i, 1.0))
        assert p not in _TABLES
        assert TestArrayTable._columns(_table(p, 5000)) == first

    def test_new_table_built_to_the_index_asked(self):
        p = DeformationParams(0.25, 0.75, 0.5)
        clear_caches()
        log_gen_factorial(12, p)
        assert len(_TABLES[p].log_box) == 13
        log_box(13, p)  # an existing table grows by at least _MIN_GROWTH
        assert len(_TABLES[p].log_box) == 13 + _MIN_GROWTH

    def test_signed_zero_shares_one_table(self):
        clear_caches()
        log_box(3, DeformationParams(0.0, 1.0, 0.0))
        log_box(3, DeformationParams(-0.0, 1.0, -0.0))
        assert len(_TABLES) == 1
        assert hash(DeformationParams(-0.0, 1.0, 0.0)) == hash(CLASSICAL)


def _outcome(fn, *args, **kwargs):
    """fn's float result as hex, so equal means equal bits, or its error."""
    try:
        return float(fn(*args, **kwargs)).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _wave(k, x, p):
    return wavefunction_sample(k, x, p)[0]


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    kernel = series._log_series

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(series, "_log_series", counted)
    monkeypatch.setattr(coherent, "_log_series", counted)
    return calls


class TestRecall:
    """The series module remembers the log-sum and length of the series it
    is asked for again, and hands back the same bits as summing afresh."""

    XS = (1e-3, 0.5, 7.0, 60.0)

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_warm_equals_cold_bitwise(self, p):
        calls = [(log_n_function, x) for x in self.XS]
        calls += [(log_n_derivative, x, r) for x in self.XS for r in (0, 1, 2)]
        calls += [(_wave, k, x**0.25) for x in self.XS for k in range(4)]
        cold = []
        for fn, *args in calls:
            clear_caches()
            cold.append(_outcome(fn, *args, p))
        clear_caches()
        for fn, *args in calls:  # fill the memo
            _outcome(fn, *args, p)
        hits = series._summary.cache_info().hits
        warm = [_outcome(fn, *args, p) for fn, *args in calls]
        assert warm == cold
        assert series._summary.cache_info().hits - hits == len(calls)

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    @pytest.mark.parametrize("x", XS)
    def test_summary_is_the_kernels(self, p, x):
        clear_caches()
        for r in (None, 0, 1, 2):
            start = r or 0
            factor = None if r is None else series._log_falling(r)
            s = series._log_series(math.log(x), p, 1e-12, 10000, "", start, log_factor=factor)
            got = series._log_series_summary(math.log(x), p, 1e-12, 10000, "", r=r)
            assert got == (s.log_sum, len(s.log_terms))
            assert series._log_series_summary(math.log(x), p, 1e-12, 10000, "", r=r) is got

    def test_error_raised_again_and_not_stored(self):
        p = TABLE_TRIPLES[0]
        clear_caches()
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="within 10 terms"):
                log_n_function(60.0, p, max_terms=10)
        info = series._summary.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_bounded_least_recently_used_first(self):
        p = TABLE_TRIPLES[2]
        clear_caches()
        xs = [0.01 * (i + 1) for i in range(_MAX_SUMMARIES + 1)]
        values = [log_n_function(x, p) for x in xs[:-1]]
        log_n_function(xs[0], p)  # now the most recently used
        log_n_function(xs[-1], p)  # one past the bound: drops xs[1]
        info = series._summary.cache_info()
        assert info.currsize == info.maxsize == _MAX_SUMMARIES == 256
        assert (info.hits, info.misses) == (1, _MAX_SUMMARIES + 1)
        assert log_n_function(xs[0], p) == values[0]  # kept
        assert series._summary.cache_info().misses == _MAX_SUMMARIES + 1
        assert log_n_function(xs[1], p) == values[1]  # dropped, summed again
        assert series._summary.cache_info().misses == _MAX_SUMMARIES + 2

    def test_dropped_with_the_table(self):
        p = TABLE_TRIPLES[3]
        log_n_function(2.0, p)
        _brackets(p, 20)
        clear_caches()
        info = series._summary.cache_info()
        assert (info.hits, info.misses, info.currsize, len(_table(p, 0).brackets)) == (0, 0, 0, 0)

    def test_photon_stats_op_sums_eight_series(self, monkeypatch):
        p, x = DeformationParams(0.5, 0.7, 0.2), 3.7
        label = CoherentLabel.from_intensity(x)
        clear_caches()
        calls = _count_kernel_calls(monkeypatch)
        log_n_function(x, p)
        photon_distribution(label, p)
        mandel_qz(label, p)
        mandel_qm(label, p)
        for r in (1, 2):
            normally_ordered_moment(r, label, p)
            fock_moment_sum(r, label, p)
        assert len(calls) == 8

    def test_readme_wavefunction_grid_sizes_each_x_once(self, monkeypatch, capsys):
        clear_caches()
        calls = _count_kernel_calls(monkeypatch)
        assert main(["wavefunction", "--k", "0..3", "--x", "0:3:31"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 31
        assert len(calls) == 31

    def test_threads_match_a_serial_run(self):
        # the reads of log [n]! at growing n race table growth the most
        work = [
            (p, x)
            for p in (*TABLE_TRIPLES, DeformationParams(0.5, 0.7, 0.2))
            for x in (0.3, 2.5, 9.0, 40.0, 80.0)
        ]

        def run(order):
            out = {}
            for i in order:
                p, x = work[i]
                out[i] = (
                    _outcome(log_n_function, x, p),
                    _outcome(log_gen_factorial, int(50 * x), p),
                    [_outcome(_wave, k, x**0.25, p) for k in range(4)],
                )
            return out

        clear_caches()
        serial = run(range(len(work)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-growth too
        try:
            for rep in range(4):
                rngs = [random.Random(4 * rep + t) for t in range(4)]
                orders = [rng.sample(range(len(work)), len(work)) for rng in rngs]
                clear_caches()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    assert all(res == serial for res in pool.map(run, orders))
        finally:
            sys.setswitchinterval(interval)


class TestDoubleFactorial:
    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_bitwise_equal_to_left_to_right_sum(self, p):
        for m in (1, 2, 3, 10, 333, 4000):
            acc = 0.0
            for k in range(m, 0, -2):
                acc += log_box(k, p)
            assert log_gen_double_factorial(m, p) == acc

    def test_empty_product(self):
        for p in GRID:
            assert gen_double_factorial(0, p).to_float() == pytest.approx(1.0)

    def test_classical_even(self):
        # (2n)!! = 2 * 4 * 6 ...
        assert gen_double_factorial(6, CLASSICAL).to_float() == pytest.approx(
            48.0, rel=1e-12
        )

    def test_classical_odd(self):
        assert gen_double_factorial(5, CLASSICAL).to_float() == pytest.approx(
            15.0, rel=1e-12
        )

    def test_wright_even_point(self):
        # product of box values [2] * [4] = 4 * 16
        p = DeformationParams(1.0, 1.0, 1.0)
        assert gen_double_factorial(4, p).to_float() == pytest.approx(64.0, rel=1e-12)

    def test_matches_box_product(self):
        for p in GRID[::4]:
            for m in range(1, 14):
                ref = sum(log_box(i, p) for i in range(m, 0, -2))
                assert abs(log_gen_double_factorial(m, p) - ref) <= 1e-10 * max(
                    1.0, abs(ref)
                )


class TestAsymptotic:
    def test_frozen_values(self):
        # (alpha + beta) n (ln(beta n) - 1)
        assert log_factorial_asymptotic(1000, CLASSICAL) == pytest.approx(
            1000.0 * (math.log(1000.0) - 1.0), rel=1e-14
        )
        assert log_factorial_asymptotic(1, CLASSICAL) == pytest.approx(-1.0, rel=1e-14)
        p = DeformationParams(1.0, 0.5, 1.0)
        assert log_factorial_asymptotic(2000, p) == pytest.approx(
            3000.0 * (math.log(1000.0) - 1.0), rel=1e-14
        )

    def test_zero(self):
        assert log_factorial_asymptotic(0, CLASSICAL) == 0.0

    def test_leading_order_ratio(self):
        ratio = log_gen_factorial(10000, CLASSICAL) / log_factorial_asymptotic(
            10000, CLASSICAL
        )
        assert 0.98 <= ratio <= 1.02
