"""Tests for the box function, generalized factorials, asymptotics, what
the factorial tables cache (their columns), and the series module's memo
of Fock series."""

import functools
import math
import pickle
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
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
    photon_pdf,
    wavefunction_sample,
)
from wcs import factorials, series
from wcs.cli import build_parser, main
from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.factorials import (
    _MAX_TABLES,
    _TABLES,
    _brackets,
    _first_series_entry,
    _log_factorials,
    _table,
)
from wcs.gammafn import _SERIES_MIN_ARG, log_gamma
from wcs.series import _MAX_SERIES

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
        assert not DeformationParams(0.0, 1.0, -0.5).cs_valid

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

    @pytest.mark.parametrize(
        "scales, combination",
        [
            ((1e300, 1e-300, 1e-300), "mass * omega / hbar"),  # m omega underflows to 0
            ((1e-300, 1e300, 1e300), "mass * omega / hbar"),  # m omega overflows
            ((1e300, 1e300, 1e-300), "hbar * mass * omega"),
            ((1e-100, 1e104, 1e104), "hbar / (mass * omega)"),  # 1e-308, subnormal
            ((1.0, 1e-160, 1e-160), "mass * omega / hbar"),  # 1e-320, subnormal
        ],
    )
    def test_scales_whose_combinations_leave_double_range(self, scales, combination):
        with pytest.raises(ParameterError, match=rf"^{re.escape(combination)} must lie in"):
            PhysicalScales(*scales)

    def test_scales_at_the_edge_of_double_range(self):
        # m omega / hbar = 1e-306, 1e307 and 9.5e20, each a normal double
        for scales in ((1.0, 1e-153, 1e-153), (1e-100, 1e103, 1e104), (1.05e-34, 1e-27, 1e14)):
            PhysicalScales(*scales)

    def test_scales_hash_and_compare_by_value(self):
        # the dataclass hash, of the field tuple; equality and repr by field
        s = PhysicalScales(2, 3.0, np.float64(0.7))
        assert s == PhysicalScales(2.0, 3.0, 0.7) and s != PhysicalScales(2.0, 3.0, 0.8)
        assert hash(s) == hash(PhysicalScales(2.0, 3.0, 0.7)) == hash((2.0, 3.0, 0.7))
        assert repr(s) == "PhysicalScales(hbar=2.0, mass=3.0, omega=0.7)"
        assert {s: 1}[PhysicalScales(2.0, 3.0, 0.7)] == 1


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

    def test_brackets_increase(self):
        # the wavefunction lattice is sized by bisections that take log [n]
        # as non-decreasing in n (so log [2j]!! as convex in j): on 1 520
        # random admissible triples to n = 600, and on the domain's edges
        # over two array blocks and past the first closed-form entry
        rng = random.Random(36)
        cases = []
        for _ in range(1520):
            a = rng.choice([0.0, 1.0, rng.random()])
            b = rng.choice([1.0, rng.uniform(0.01, 1.0), 10.0 ** rng.uniform(-9.0, -2.0)])
            cases.append((DeformationParams(a, b, a - 1.0 + 10.0 ** rng.uniform(-6.0, 1.7)), 600))
        cases += [(DeformationParams(a, b, v), 8200) for a in (0.0, 1.0) for b in (1e-9, 0.05, 1.0)
                  for v in (a - 1.0 + 1e-6, a + 2.0, 50.0)]
        clear_caches()
        for p, n in cases:
            col = _table(p, n).log_box[1 : n + 1]
            assert (np.diff(col) >= 0.0).all(), p
            clear_caches()

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

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=150, deadline=None)
    def test_factorial_steps_are_brackets(self, a, b, dv, n):
        # log [n]! - log [n-1]! = log [n], read through the scalar
        # accessors: the worst of 4 000 triples on this domain, each at
        # n = 1..3000, was 7.8 ulp of max(1, log [n]!), just past k0 at
        # beta = 0.05 and nu near alpha - 1
        p = DeformationParams(a, b, (a - 1.0) + dv)
        step = log_gen_factorial(n, p) - log_gen_factorial(n - 1, p)
        scale = max(1.0, abs(log_gen_factorial(n, p)))
        assert abs(step - log_box(n, p)) <= 8 * math.ulp(scale)

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            gen_factorial(-1, CLASSICAL)

    def test_cache_clear_is_transparent(self):
        before = log_gen_factorial(12, GRID[4])
        clear_caches()
        assert log_gen_factorial(12, GRID[4]) == before


# alpha = 1 with beta = 0.1 and alpha = 0.9 with beta = 0.05 send the
# b k + 1 - alpha arguments below 0.5, where the ratio series shifts up
# furthest
TABLE_TRIPLES = [
    DeformationParams(1.0, 0.1, 0.5),
    DeformationParams(0.9, 0.05, 0.0),
    CLASSICAL,
    DeformationParams(0.5, 0.5, -0.3),
]

# the series triples: beta = 0.05, nu near alpha - 1, and a large nu
SERIES_TRIPLES = [
    DeformationParams(0.3, 0.7, 0.2),
    DeformationParams(0.9, 0.05, 0.0),
    DeformationParams(0.5, 0.5, -0.5 + 1e-3),
    DeformationParams(0.2, 0.3, 9.5),
    DeformationParams(1.0, 0.1, 0.5),
    DeformationParams(0.05, 0.05, 0.3),
]


def _mp_log_gamma_ratios(p, k):
    """log [k] and lg(bk+1) - lg(bk+1-a) at 40 digits, from the float triple."""
    with mpmath.workdps(40):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg = mpmath.loggamma
        top = lg(b * k + 1) - lg(b * k + 1 - a)
        return top + lg(b * k + 1 - a + v) - lg(b * (k - 1) + 1 - a + v), top


def _mp_log_tables(p, n):
    """log [1..n] and log [1..n]! at 40 digits, from the float triple, the
    factorial as its telescoped closed form."""
    with mpmath.workdps(40):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg = mpmath.loggamma
        boxes, facts, prod = [], [], mpmath.mpf(0)
        for k in range(1, n + 1):
            ref, top = _mp_log_gamma_ratios(p, k)
            prod += top
            boxes.append(ref)
            facts.append(prod + lg(b * k + 1 - a + v) - lg(1 - a + v))
        return boxes, facts


def _mp_closed_log_factorial(p, n):
    """log [n]! at 40 digits from its closed form at alpha in {0, beta, 1}."""
    with mpmath.workdps(40):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg = mpmath.loggamma
        if a == 0:
            return lg(b * n + 1 + v) - lg(1 + v)
        if a == b:
            return lg(b * n + 1) + lg(b * n + 1 - b + v) - lg(1 - b + v)
        assert a == 1
        return n * mpmath.log(b) + lg(n + 1) + lg(b * n + v) - lg(v)


def _above_k0(k0, n_max, count=40):
    """k0, the few entries after it, and a geometric sample up to n_max."""
    return sorted({*range(k0, k0 + 4), *np.geomspace(k0, n_max, count).astype(int).tolist()})


class TestArrayTable:
    """Tables built in array blocks: the same bits whatever the read order,
    and every entry, below k0 and from k0 on, within a few ulp of 40-digit
    mpmath."""

    @staticmethod
    def _rows(tab, n):
        # both columns' entries 0..n
        return tab.log_box[: n + 1].tobytes(), tab.log_fact[: n + 1].tobytes()

    @staticmethod
    def _grown(p, steps):
        """p's table after reads at each n of steps, from no table."""
        clear_caches()  # drops the remembered (p, table) pair too
        for n in steps:
            tab = _table(p, n)
        return tab

    # with beta = 1e-9 every entry is below k0, in three blocks
    @pytest.mark.parametrize(
        "p", [*dict.fromkeys(TABLE_TRIPLES + SERIES_TRIPLES), DeformationParams(0.5, 1e-9, 0.5)]
    )
    def test_every_growth_path_gives_the_same_bits(self, p):
        whole = self._rows(self._grown(p, [10_000]), 10_000)
        k0 = min(_first_series_entry(p), 9_998)
        for steps in (
            [37, 4096, 4097, 10_000],
            [k0 - 1, k0, k0 + 1, 10_000],  # the series start in a table of its own
            [*range(64, 10_000, 64), 10_000],
        ):
            assert self._rows(self._grown(p, steps), 10_000) == whole

    @pytest.mark.parametrize(
        "p",
        [
            *dict.fromkeys(TABLE_TRIPLES + SERIES_TRIPLES),
            # k0, about 12 / beta, lies beyond any table, or beyond every float
            *(DeformationParams(0.5, beta, 0.5) for beta in (1e-9, 1e-300, 5e-324)),
        ],
    )
    def test_entries_to_past_k0_against_mpmath(self, p):
        # below k0 the same ratio series as from k0 on, shifted up, and
        # log [n]! the running sum of log [k]; past k0, the series entries
        k0 = _first_series_entry(p)
        n = min(k0 + 2, 300)
        tab = self._grown(p, [n])
        boxes, facts = _mp_log_tables(p, n)
        for k in range(1, n + 1):
            ref_box, ref_fact = boxes[k - 1], facts[k - 1]
            assert abs(tab.log_box[k] - ref_box) <= 4e-15 * max(1, abs(ref_box)), k
            assert abs(tab.log_fact[k] - ref_fact) <= 5e-15 * max(1, abs(ref_fact)), k

    def test_subnormal_tail_constant(self):
        # 1 - alpha + nu = 5e-324: log Gamma of it, the constant of every
        # entry from k0 = 27 on, is -log(5e-324), so the column has no step
        # at k0 (it was 0.046 off there, log(pi / 3))
        p = DeformationParams(1.0, 0.5, 5e-324)
        k0 = _first_series_entry(p)
        assert k0 == 27
        tab = self._grown(p, [k0 + 5])
        boxes, facts = _mp_log_tables(p, k0 + 5)
        for k in range(1, k0 + 6):
            assert abs(tab.log_box[k] - boxes[k - 1]) <= 4e-15 * max(1, abs(boxes[k - 1])), k
            assert abs(tab.log_fact[k] - facts[k - 1]) <= 5e-15 * max(1, abs(facts[k - 1])), k

    @pytest.mark.parametrize("p", list(dict.fromkeys(TABLE_TRIPLES + SERIES_TRIPLES)))
    def test_factorial_column_is_continuous_at_k0(self, p):
        # log [k0]! is a closed form, log [k0 - 1]! a running sum: they part
        # by no more than rounding
        k0 = _first_series_entry(p)
        tab = self._grown(p, [k0])
        step = tab.log_fact[k0] - tab.log_fact[k0 - 1] - tab.log_box[k0]
        assert abs(step) <= 4 * math.ulp(tab.log_fact[k0])

    @pytest.mark.parametrize("p", SERIES_TRIPLES)
    def test_brackets_from_k0_against_mpmath(self, p):
        tab = self._grown(p, [100_000])
        for k in _above_k0(_first_series_entry(p), 100_000):
            ref, _ = _mp_log_gamma_ratios(p, k)
            assert abs(tab.log_box[k] - ref) <= 1e-14 * abs(ref), k

    def test_classical_log_box_is_log_n(self):
        tab = self._grown(CLASSICAL, [100_000])
        n = np.arange(1, 100_001)
        got = tab.log_box[1:].tolist()
        assert all(abs(g - math.log(k)) <= math.ulp(math.log(k)) for k, g in zip(n.tolist(), got))
        # exp(log n) carries the rounding of log n, about log(n) eps/2
        lin = _brackets(CLASSICAL, 100_000)[1:]
        assert np.all(np.abs(lin - n) <= (np.log(n) + 1.0) * 0.5 * np.finfo(float).eps * n)

    @pytest.mark.parametrize(
        "p",
        [
            DeformationParams(0.0, 1.0, 0.0),
            DeformationParams(0.0, 0.5, 0.0),
            DeformationParams(0.0, 0.05, 0.3),
            DeformationParams(0.5, 0.5, 0.25),
            DeformationParams(0.05, 0.05, 0.3),
            DeformationParams(0.7, 0.7, -0.2),
            DeformationParams(1.0, 1.0, 0.5),
            DeformationParams(1.0, 0.1, 0.5),
            DeformationParams(1.0, 0.05, 1e-3),
        ],
    )
    def test_log_factorials_from_k0_against_closed_forms(self, p):
        tab = self._grown(p, [100_000])
        for n in _above_k0(_first_series_entry(p), 100_000):
            ref = _mp_closed_log_factorial(p, n)
            assert abs(tab.log_fact[n] - ref) <= 1e-15 * abs(ref), n

    @pytest.mark.parametrize("p", SERIES_TRIPLES[:2])
    def test_log_factorials_from_k0_against_mpmath_sums(self, p):
        tab, k0 = self._grown(p, [2000]), _first_series_entry(p)
        with mpmath.workdps(40):
            a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
            prod = mpmath.fsum(_mp_log_gamma_ratios(p, k)[1] for k in range(1, k0))
            for n in range(k0, 2001):
                prod += _mp_log_gamma_ratios(p, n)[1]
                ref = prod + mpmath.loggamma(b * n + 1 - a + v) - mpmath.loggamma(1 - a + v)
                assert abs(tab.log_fact[n] - ref) <= 1e-15 * abs(ref), n

    def test_running_sums_below_k0_round_once(self):
        # each partial sum of the log [k] is the exact sum rounded once, as
        # math.fsum rounds it, from any run carried in from the block before
        rng = np.random.default_rng(27)
        for run in (0.0, -7.25, 3.0e6):
            steps = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.uniform(-3, 3, 1000)
            got = factorials._rounded_once(run, steps).tolist()
            assert got == [math.fsum([run, *steps[: j + 1]]) for j in range(len(steps))]

    def test_alpha_one_below_the_resolution_of_one_is_refused(self):
        # beta k + 1 - alpha rounds to 0 at alpha = 1, beta < 2^-53
        p = DeformationParams(1.0, 1e-17, 0.5)
        with pytest.raises(NumericalRangeError, match="rounds to 0"):
            log_box(1, p)

    def test_series_shifts_stop_at_k0(self, monkeypatch):
        # a work counter, the same on any machine: the ratio series shifts
        # up only arguments below z0, the two of each entry below k0 and
        # the one of each term of sum_(k<k0) r(k), none after k0
        shifted = []
        ratio_series = factorials._ratio_series

        def counted(w, d, coeffs):
            shifted.append(int(np.count_nonzero(w < _SERIES_MIN_ARG)))
            return ratio_series(w, d, coeffs)

        monkeypatch.setattr(factorials, "_ratio_series", counted)
        p = DeformationParams(0.3, 0.5, 0.2)
        self._grown(p, [10_000])
        assert 0 < sum(shifted) <= 3 * (_first_series_entry(p) - 1)

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
        for col in (tab.log_box, tab.log_fact):
            assert type(col) is np.ndarray and col.dtype == np.float64
            assert len(col) == len(tab.log_box) > 100
            with pytest.raises(ValueError, match="read-only"):
                col[1] = 0.0

    def test_scalar_accessors_return_float(self):
        p = TABLE_TRIPLES[3]
        for n in (0, 1, 7):
            for f in (log_box, box, log_gen_factorial, log_gen_double_factorial):
                assert type(f(n, p)) is float

    def test_a_cold_loop_builds_logarithmically_many_tables(self, monkeypatch):
        # a work counter: read at n = 1, 2, ..., a table is replaced only
        # past its end, by one at least twice as long
        built = []
        table = factorials._Table

        def counted(p, n):
            built.append(n)
            return table(p, n)

        monkeypatch.setattr(factorials, "_Table", counted)
        p = TABLE_TRIPLES[2]
        clear_caches()  # drops the remembered (p, table) pair too
        for n in range(1, 100_001):
            log_box(n, p)
        assert len(built) <= 19
        assert built[0] == 1 and len(_TABLES[p].log_box) > 100_000

    def test_columns_handed_out_outlive_a_longer_read(self):
        p = TABLE_TRIPLES[1]
        clear_caches()
        tab = _table(p, 100)
        cols = (tab.log_box, tab.log_fact, _brackets(p, 100))
        before = [col.tobytes() for col in cols]
        _table(p, 5000)  # a new, longer table takes its place
        assert _TABLES[p] is not tab
        for col, old in zip(cols, before):
            assert col.tobytes() == old
            with pytest.raises(ValueError, match="read-only"):
                col[1] = 0.0

    def test_reads_never_rebind_a_table_attribute(self, monkeypatch):
        # each attribute is set once, by the constructor: reads of every
        # kind, each far past the last, replace the table instead
        def set_once(tab, name, value):
            assert not hasattr(tab, name), name
            object.__setattr__(tab, name, value)

        monkeypatch.setattr(factorials._Table, "__setattr__", set_once)
        p = TABLE_TRIPLES[0]
        clear_caches()
        seen = []
        for n in (0, 3, 50, 4097, 30_000):
            _brackets(p, n)
            _log_factorials(p, n)
            log_gen_double_factorial(n, p)
            series._log_series(math.log(n + 1.0), p, 1e-12, 10**6, "test")
            log_box(n, p)
            log_gen_factorial(n, p)
            tab = _TABLES[p]
            seen.append((tab, [getattr(tab, name) for name in factorials._Table.__slots__]))
        assert len({id(tab) for tab, _ in seen}) > 1
        for tab, values in seen:
            assert all(getattr(tab, name) is value
                       for name, value in zip(factorials._Table.__slots__, values))


class TestSequenceReads:
    """_brackets and _log_factorials read whole sequences off the table and
    equal the scalar accessors element for element, bit for bit."""

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_equal_to_scalar_accessors_on_a_table_grown_in_pieces(self, p):
        clear_caches()
        for n in (0, 1, 37, 4096, 4097, 10_000):  # most reads replace the table
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
        first = TestArrayTable._rows(_table(p, 5000), 5000)
        for i in range(_MAX_TABLES):
            log_box(3, DeformationParams(0.2, 0.1 + 0.01 * i, 1.0))
        assert p not in _TABLES
        assert TestArrayTable._rows(_table(p, 5000), 5000) == first

    def test_new_table_built_to_the_index_asked(self):
        p = DeformationParams(0.25, 0.75, 0.5)
        clear_caches()
        log_gen_factorial(12, p)
        assert len(_TABLES[p].log_box) == 13
        log_box(13, p)  # a read past the end builds one twice as long
        assert len(_TABLES[p].log_box) == 2 * 13 + 1

    @pytest.mark.parametrize(
        "n", [0, 7, 100, 101, 102, 250, 2**70, np.int64(7), True, -1, 7.0, "7"]
    )
    def test_scalar_reads_same_on_hit_and_miss(self, n):
        # with no table, with one just built to 100 (a hit through its last
        # entry 100, a replacement from 101 on, and at 2^70 an index past
        # what a view can take), and on the table that read left: the same
        # bits, or the same error
        p = TABLE_TRIPLES[2]
        for fn in (log_box, box, log_gen_factorial):
            clear_caches()
            cold = _outcome(fn, n, p)
            clear_caches()
            assert len(_table(p, 100).log_box) == 101
            assert _outcome(fn, n, p) == cold
            assert _outcome(fn, n, p) == cold

    def test_equal_but_distinct_triples_read_the_same_bits(self):
        # one triple object is the remembered pair's, the other goes
        # through the dict; either may be the one _table saw last
        p, q = DeformationParams(0.3, 0.7, 0.2), DeformationParams(0.3, 0.7, 0.2)
        assert p == q and p is not q
        clear_caches()
        for last in (p, q, p):
            _table(last, 300)
            assert factorials._LAST[0] is last
            for n in (0, 1, 7, 100, 300):
                for fn in (log_box, log_gen_factorial):
                    assert _outcome(fn, n, p) == _outcome(fn, n, q)

    def test_hits_follow_a_replaced_table(self, monkeypatch):
        built = []
        table = factorials._Table
        monkeypatch.setattr(factorials, "_Table", lambda p, n: built.append(n) or table(p, n))
        p = TABLE_TRIPLES[1]
        clear_caches()
        first = _table(p, 100)
        log_box(150, p)  # past its end: one to twice its length replaces it
        assert built == [100, 202]
        longer = _TABLES[p]
        assert longer is not first and factorials._LAST == (p, longer)
        for n in (150, 180, 202):  # hits on the new table, no build
            assert log_box(n, p) == longer.log_box[n]
            assert log_gen_factorial(n, p) == longer.log_fact[n]
        assert built == [100, 202]

    def test_clear_caches_forgets_the_remembered_pair(self, monkeypatch):
        built = []
        table = factorials._Table
        monkeypatch.setattr(factorials, "_Table", lambda p, n: built.append(n) or table(p, n))
        p = TABLE_TRIPLES[2]
        clear_caches()
        log_gen_factorial(50, p)
        clear_caches()
        assert factorials._LAST == (None, None) and not _TABLES
        log_box(5, p)  # builds anew, to 5, not a hit on the forgotten table
        assert built == [50, 5]
        assert factorials._LAST == (p, _TABLES[p]) and len(_TABLES[p].log_box) == 6

    def test_threads_alternating_triples_read_single_threaded_values(self):
        # each thread reads the three triples in turn, at indices that
        # replace tables as they go, so the remembered pair changes hands
        # between every read; some threads hold copies of the triples.  The
        # linear brackets, the double factorials and the wavefunction levels
        # are read off the shared tables without a lock too
        triples = [DeformationParams(0.2, 0.4, 0.6), DeformationParams(0.9, 0.15, 1.7),
                   DeformationParams(0.6, 0.35, -0.2)]
        ns = [*range(0, 300, 7), 1000, 4097, 20_000, 5, 9000]

        def reads(ps):
            out = []
            for n in ns:
                for p in ps:
                    out.append((
                        _outcome(log_box, n, p),
                        _outcome(log_gen_factorial, n, p),
                        _brackets(p, n).tobytes(),
                        _outcome(log_gen_double_factorial, n, p),
                        _outcome(lambda: wavefunction_sample(n % 13, 0.01 * (n % 300), p)[0]),
                    ))
            return out

        clear_caches()
        want = reads(triples)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between the pair's reads too
        try:
            for _ in range(3):
                clear_caches()
                copies = [DeformationParams(p.alpha, p.beta, p.nu) for p in triples]
                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(reads, ps) for ps in (triples, copies, triples, copies)]
                    assert all(f.result(timeout=60) == want for f in futures)
        finally:
            sys.setswitchinterval(interval)

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
    return calls


def _read(lx, p, tol, max_terms, what="", **key):
    return series._memo_read(lx, p, tol, max_terms, what, **key)


def _memo_info():
    """(hits, misses, size) of the series memo."""
    info = series._series_memo.cache_info()
    return info.hits, info.misses, info.currsize


def _record_bits(s):
    return s.log_terms.tobytes(), s.log_sum.hex(), s.log_ratio.hex()


class TestRecall:
    """The series module remembers each Fock series it is asked for again,
    whole, and hands back the same bits as summing afresh."""

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
        hits, misses, size = _memo_info()
        # N's and the three derivatives' series at each x; the wavefunctions
        # sum none
        assert (misses, size) == (4 * len(self.XS), 4 * len(self.XS))
        warm = [_outcome(fn, *args, p) for fn, *args in calls]
        assert warm == cold
        # every series call a hit
        assert _memo_info() == (hits + 4 * len(self.XS), misses, size)

    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    @pytest.mark.parametrize("x", XS)
    def test_record_is_the_kernels(self, p, x):
        clear_caches()
        lx = math.log(x)
        for kind in (None, 0, 1, 2):
            s = series._log_series(lx, p, 1e-12, 10000, "", kind)
            got = _read(lx, p, 1e-12, 10000, kind=kind)
            assert _record_bits(got) == _record_bits(s)
            assert _read(lx, p, 1e-12, 10000, kind=kind) is got
        assert _memo_info() == (4, 4, 4)

    def test_error_raised_again_and_not_stored(self):
        p = TABLE_TRIPLES[0]
        clear_caches()
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="within 10 terms"):
                log_n_function(60.0, p, max_terms=10)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="within 10 terms"):
                log_n_derivative(60.0, 1, p, max_terms=10)
        assert _memo_info() == (0, 4, 0)

    @pytest.mark.parametrize("r", [None, 1])
    def test_bounded_least_recently_used_first(self, r):
        p = TABLE_TRIPLES[2]

        def call(x):
            return log_n_function(x, p) if r is None else log_n_derivative(x, r, p)

        clear_caches()
        xs = [0.01 * (i + 1) for i in range(_MAX_SERIES + 1)]
        values = [call(x) for x in xs[:-1]]
        call(xs[0])  # now the most recently used
        call(xs[-1])  # one past the bound: drops xs[1]
        info = series._series_memo.cache_info()
        assert info.currsize == info.maxsize == _MAX_SERIES == 64
        assert (info.hits, info.misses) == (1, _MAX_SERIES + 1)
        assert call(xs[0]) == values[0]  # kept
        assert _memo_info()[1] == _MAX_SERIES + 1
        assert call(xs[1]) == values[1]  # dropped, summed again
        assert _memo_info()[1] == _MAX_SERIES + 2

    def test_dropped_with_the_table(self):
        p = TABLE_TRIPLES[3]
        log_n_function(2.0, p)
        log_n_derivative(2.0, 1, p)
        _brackets(p, 20)
        clear_caches()
        assert _memo_info() == (0, 0, 0)
        assert p not in _TABLES

    def test_photon_stats_op_sums_four_series(self, monkeypatch):
        # log N at tol 1e-12 (log N, both moment functions) and at 1e-13
        # (p(n) and Q_M), and the derivatives r = 1, 2 (read by both moment
        # functions)
        p, x = DeformationParams(0.5, 0.7, 0.2), 3.7
        clear_caches()
        calls = _count_kernel_calls(monkeypatch)
        _photon_stats_op(p, x)
        assert len(calls) == 4

    @pytest.mark.parametrize("triple, x", [((0.5, 0.7, 0.2), 3.7), ((0.0, 1.0, 0.0), 60.0),
                                           ((0.0, 0.3, 0.5), 9.0), ((1.0, 0.5, 1.0), 0.2)])
    def test_a_repeated_photon_stats_op_sums_no_series(self, monkeypatch, triple, x):
        # every series the op reads is a memo record: the op run again sums
        # none and returns the same bits
        p = DeformationParams(*triple)
        clear_caches()
        first = _photon_stats_op(p, x)
        calls = _count_kernel_calls(monkeypatch)
        assert _photon_stats_op(p, x) == first
        assert calls == []

    def test_readme_wavefunction_grid_runs_no_kernel_pass(self, monkeypatch, capsys):
        # each lattice is sized from its level table's ground row
        clear_caches()
        calls = _count_kernel_calls(monkeypatch)
        assert main(["wavefunction", "--k", "0..3", "--x", "0:3:31"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 31
        assert calls == []

    def test_wavefunction_grid_and_photon_stats_op_share_the_memo(self, monkeypatch, capsys):
        # the grid leaves the memo alone: the op sums its 4 series, and the
        # op again after a second grid sums none
        argv = ["wavefunction", "--k", "0..3", "--x", "0:3:31"]
        args = build_parser().parse_args(argv)
        p = DeformationParams(args.alpha, args.beta, args.nu)
        clear_caches()
        calls = _count_kernel_calls(monkeypatch)
        assert main(argv) == 0
        first = _photon_stats_op(p, 3.7)
        assert len(calls) == 4
        assert main(argv) == 0
        assert _photon_stats_op(p, 3.7) == first
        capsys.readouterr()
        assert len(calls) == 4

    def test_threads_match_a_serial_run(self):
        # the reads of log [n]! at growing n race table replacement the most,
        # 66 values of x, each with three series, race the memo's drops, and
        # wavefunction levels up to 12 on five triples race the level tables'
        # growth and drops
        triples = (*TABLE_TRIPLES, DeformationParams(0.5, 0.7, 0.2))
        xs = np.linspace(0.3, 80.0, 66).tolist()
        assert 3 * len(xs) > _MAX_SERIES
        work = [(triples[i % len(triples)], x) for i, x in enumerate(xs)]

        def run(order):
            out = {}
            for i in order:
                p, x = work[i]
                label = CoherentLabel.from_intensity(x)
                out[i] = (
                    _outcome(log_n_function, x, p),
                    _outcome(lambda: photon_distribution(label, p, max_n=10000).cutoff),
                    _outcome(fock_moment_sum, 1, label, p, max_terms=10000),
                    _outcome(log_gen_factorial, int(50 * x), p),
                    [_outcome(_wave, k, x**0.25, p) for k in (0, 1, 2, 3, 12)],
                )
            return out

        clear_caches()
        serial = run(range(len(work)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-build too
        try:
            for rep in range(4):
                rngs = [random.Random(4 * rep + t) for t in range(4)]
                orders = [rng.sample(range(len(work)), len(work)) for rng in rngs]
                clear_caches()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    assert all(res == serial for res in pool.map(run, orders))
        finally:
            sys.setswitchinterval(interval)

    def test_a_miss_runs_with_its_own_threads_budget_and_label(self, monkeypatch):
        # the first thread stops inside its miss, after leaving its budget
        # and label, while a second thread leaves and uses its own
        p = DeformationParams(0.5, 0.7, 0.2)
        paused, resume = threading.Event(), threading.Event()
        kernel = series._log_series

        def pausing(*args):
            if threading.current_thread().name == "first":
                paused.set()
                resume.wait(5)
            return kernel(*args)

        monkeypatch.setattr(series, "_log_series", pausing)
        clear_caches()
        out = {}
        first = threading.Thread(
            target=lambda: out.setdefault("first", _outcome(log_n_function, 60.0, p, max_terms=10)),
            name="first",
        )
        first.start()
        assert paused.wait(5)
        out["second"] = _outcome(log_n_derivative, 60.0, 2, p, max_terms=20)
        resume.set()
        first.join(5)
        assert not first.is_alive()
        assert out == {
            "first": ("ConvergenceError",
                      "log_n_function: no convergence to tol=1e-12 within 10 terms; "
                      "its terms peak near n ~ 43.3"),
            "second": ("ConvergenceError",
                       "log_n_derivative(r=2): no convergence to tol=1e-12 within 20 terms; "
                       "its terms peak near n ~ 43.3"),
        }


def _photon_stats_op(p, x) -> bytes:
    """The calls of one photon-stats benchmark op at (p, x): their results,
    pickled, so equal means equal bits."""
    label = CoherentLabel.from_intensity(x)
    results = [
        log_n_function(x, p),
        photon_distribution(label, p),
        mandel_qz(label, p),
        mandel_qm(label, p),
        *(f(r, label, p) for r in (1, 2) for f in (normally_ordered_moment, fock_moment_sum)),
    ]
    return pickle.dumps(results, protocol=4)


class TestSeriesMemo:
    """The memo is keyed without the term budget and the error label: a hit
    is the bits of the caller's own cold run, or its own error."""

    POINTS = [
        (DeformationParams(0.5, 0.7, 0.2), 3.7),
        (CLASSICAL, 60.0),
        (DeformationParams(0.0, 0.5, 0.0), 30.0),
        (TABLE_TRIPLES[0], 7.0),
    ]

    @staticmethod
    def _stopping_block_end(n: int) -> int:
        # the kernel's blocks from n = 0: 64 terms, then doubling to 4096
        end, size = 0, series._FIRST_BLOCK
        while end < n:
            end, size = end + size, min(2 * size, series._MAX_BLOCK)
        return end

    @pytest.mark.parametrize("p, x", POINTS)
    def test_hit_equals_a_cold_run_for_every_budget_that_fits(self, p, x):
        lx = math.log(x)
        clear_caches()
        warm = _read(lx, p, 1e-13, 10**5)
        n = len(warm.log_terms)
        block_end = self._stopping_block_end(n)
        assert n < block_end - 1  # a budget can end inside the stopping block
        for budget in sorted({n, n + 1, (n + block_end) // 2, block_end, block_end + 1,
                              10**4, 10**5}):
            cold = series._log_series(lx, p, 1e-13, budget, "")
            hit = _read(lx, p, 1e-13, budget)
            assert hit is warm
            assert _record_bits(hit) == _record_bits(cold)
            clear_caches()  # and a miss at this budget stores the same bits
            assert _record_bits(_read(lx, p, 1e-13, budget)) == _record_bits(cold)
            assert _record_bits(_read(lx, p, 1e-13, 10**5)) == _record_bits(cold)
            warm = _read(lx, p, 1e-13, 10**5)

    @pytest.mark.parametrize("p, x", POINTS)
    def test_hit_beyond_the_budget_raises_the_callers_own_error(self, p, x):
        n = len(series._log_series(math.log(x), p, 1e-13, 10**5, "").log_terms)
        label = CoherentLabel.from_intensity(x)
        calls = [
            lambda b: log_n_function(x, p, tol=1e-13, max_terms=b),
            lambda b: photon_distribution(label, p, max_n=b - 1),
            lambda b: fock_moment_sum(1, label, p, tol=1e-13, max_terms=b),
            lambda b: mandel_qm(label, p, max_terms=b),
        ]
        for budget in (1, n // 2, n - 1):
            for call in calls:
                clear_caches()
                cold = _outcome(call, budget)
                assert cold[0] == "ConvergenceError"
                log_n_function(x, p, tol=1e-13, max_terms=10**5)  # fill the memo
                assert _outcome(call, budget) == cold

    @pytest.mark.parametrize("p, x", [*POINTS, (DeformationParams(0.5, 0.7, 0.2), 0.05)])
    def test_qm_hit_beyond_the_budget_raises_a_cold_runs_error(self, p, x):
        # the N record Q_M reads, memoised at the default budget, read
        # again under a smaller one: the text of a cold call with that
        # budget, at x = 0.05 naming its first index, n = 0, as where terms
        # peak
        label = CoherentLabel.from_intensity(x)
        n = len(series._log_series(math.log(x), p, 1e-13, 10**5, "").log_terms)
        for budget in (1, n // 2, n - 1):
            clear_caches()
            cold = _outcome(mandel_qm, label, p, max_terms=budget)
            assert cold[0] == "ConvergenceError" and f"within {budget} terms" in cold[1]
            assert x > 1.0 or cold[1].endswith("its terms peak near n ~ 0")
            mandel_qm(label, p)  # fill the memo
            misses = _memo_info()[1]
            assert _outcome(mandel_qm, label, p, max_terms=budget) == cold
            assert _memo_info()[1] == misses  # a hit

    def test_one_entry_serves_every_label_and_budget(self):
        p, x = self.POINTS[0]
        clear_caches()
        first = _read(math.log(x), p, 1e-13, 10**5, "a")
        assert _read(math.log(x), p, 1e-13, 1000, "b") is first
        assert _memo_info() == (1, 1, 1)
        read = functools.partial(_read, math.log(x), p, 1e-12)
        derivative = read(10**4, "c", kind=2)
        assert read(500, "d", kind=2) is derivative
        assert _memo_info() == (2, 2, 2)

    def test_each_key_is_one_entry_however_it_is_passed(self):
        p, x = self.POINTS[0]
        clear_caches()
        first = _read(math.log(x), p, 1e-12, 10**4, kind=1)
        assert series._memo_read(math.log(x), p, 1e-12, 10**4, "", 1, None) is first
        assert _memo_info() == (1, 1, 1)
        # both moment functions read the derivative's record and N's
        clear_caches()
        label = CoherentLabel.from_intensity(x)
        normally_ordered_moment(1, label, p)
        fock_moment_sum(1, label, p)
        assert _memo_info() == (2, 2, 2)

    def test_a_warm_hit_beyond_the_budget_names_r_as_a_cold_run(self):
        p = DeformationParams(0.5, 0.7, 0.2)
        with pytest.raises(ConvergenceError) as err:
            log_n_derivative(60.0, 2, p, max_terms=10)
        assert str(err.value) == (
            "log_n_derivative(r=2): no convergence to tol=1e-12 within 10 terms; "
            "its terms peak near n ~ 43.3"
        )
        # a warm hit beyond the budget raises the same text
        log_n_derivative(60.0, 2, p)
        with pytest.raises(ConvergenceError) as again:
            log_n_derivative(60.0, 2, p, max_terms=10)
        assert str(again.value) == str(err.value)

    @pytest.mark.parametrize(
        "lx, key",
        [
            (math.log(3.7), {}),  # N's series
            (math.log(3.7), {"kind": 2}),  # a derivative's
            (-math.inf, {}),  # x = 0, one term
        ],
    )
    def test_log_terms_are_read_only(self, lx, key):
        p = self.POINTS[0][0]
        clear_caches()
        s = _read(lx, p, 1e-13, 10**5, **key)
        assert not s.log_terms.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.log_terms[0] = 1.0
        assert _read(lx, p, 1e-13, 10**5, **key) is s

    def test_readers_leave_the_terms_alone(self):
        p, x = self.POINTS[0]
        clear_caches()
        s = _read(math.log(x), p, 1e-13, 10**5)
        before = s.log_terms.tobytes()
        probs = photon_distribution(CoherentLabel.from_intensity(x), p).probabilities
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
        fock_moment_sum(2, CoherentLabel.from_intensity(x), p)
        assert _read(math.log(x), p, 1e-13, 10**5) is s
        assert s.log_terms.tobytes() == before


class TestTableCeiling:
    """A table past _MAX_ENTRIES is refused before anything is allocated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: box(n, CLASSICAL),
            lambda n: photon_pdf(n, CoherentLabel.from_intensity(2.0), CLASSICAL),
        ],
    )
    def test_refused_up_front(self, call):
        clear_caches()
        with pytest.raises(NumericalRangeError, match=f"n = {2**40} .* of {2**26} entries"):
            call(2**40)
        assert CLASSICAL not in _TABLES

    def test_the_last_entry_below_the_ceiling_is_built(self, monkeypatch):
        monkeypatch.setattr(factorials, "_MAX_ENTRIES", 1000)
        clear_caches()
        box(500, CLASSICAL)
        box(600, CLASSICAL)  # the table doubles, but only up to the ceiling
        assert len(_TABLES[CLASSICAL].log_box) == 1000
        assert box(999, CLASSICAL) == pytest.approx(999.0, rel=1e-13)
        with pytest.raises(NumericalRangeError, match="n = 1000 .* ceiling of 1000 entries"):
            box(1000, CLASSICAL)


class TestDoubleFactorial:
    @pytest.mark.parametrize("p", TABLE_TRIPLES)
    def test_bitwise_equal_to_left_to_right_sum(self, p):
        # 0 + log [1 or 2] + log [3 or 4] + ... + log [m], from the bottom
        for m in (0, 1, 2, 3, 10, 333, 4000, 4001):
            acc = 0.0
            for k in range(2 - m % 2, m + 1, 2):
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

    @pytest.mark.parametrize("n", [2**1100, 2**1023], ids=["2**1100", "2**1023"])
    def test_beyond_double_range_is_typed(self, n):
        # n itself is past the largest double, or the value is
        with pytest.raises(NumericalRangeError, match=f"n = {n} .* past double range"):
            log_factorial_asymptotic(n, CLASSICAL)

    def test_leading_order_ratio(self):
        ratio = log_gen_factorial(10000, CLASSICAL) / log_factorial_asymptotic(
            10000, CLASSICAL
        )
        assert 0.98 <= ratio <= 1.02
