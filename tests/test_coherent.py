"""Tests for photon statistics, overlaps, Mandel parameters, uncertainties,
and oscillator wavefunctions."""

import cmath
import math
import random
import re
import sys
import warnings

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
    coherent_amplitudes,
    commutator_diagonal,
    continuity_defect,
    excited_wavefunction,
    fock_moment_sum,
    gen_factorial,
    ground_wavefunction,
    ladder_up_coeff,
    log_gen_double_factorial,
    log_n_function,
    mandel_qm,
    mandel_qz,
    normally_ordered_moment,
    overlap,
    photon_distribution,
    photon_pdf,
    quadrature_stats,
    vacuum_uncertainty,
    wavefunction_sample,
)
from wcs import coherent, gammafn, series
from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.factorials import _brackets, log_box, log_gen_factorial

CLASSICAL = DeformationParams(0.0, 1.0, 0.0)
P011 = DeformationParams(0.0, 1.0, 1.0)
P111 = DeformationParams(1.0, 1.0, 1.0)
HALF = DeformationParams(0.5, 0.5, 0.25)
S1 = PhysicalScales()
SI = PhysicalScales(1.05e-34, 1e-27, 1e14)  # a length of 3.2e-11 m
WAVE_SCALES = (PhysicalScales(0.5, 2.0, 1.5), PhysicalScales(2.0, 0.3, 0.7), SI)

# Brute-force Fock-sum oracle values (400 terms, 40-digit arithmetic).
QM_GOLDENS = [
    (1.0, P011, 0.58197670686932642),
    (0.5, P111, 0.81204094122269148),
    (1.0, HALF, -0.47575834026527728),
]
QZ_GOLDENS = [
    (1.0, DeformationParams(0, 1, 0.25), 0.055472079432282352),
    (1.0, DeformationParams(0, 1, 0.5), 0.093655188787880619),
    (1.0, HALF, 0.086573996340766771),
]


class TestLabel:
    def test_intensity_roundtrip(self):
        lab = CoherentLabel.from_intensity(4.0)
        assert lab.z == 2.0 + 0.0j
        assert lab.x == pytest.approx(4.0)

    def test_complex_intensity(self):
        lab = CoherentLabel(complex(0.3, -0.4))
        assert lab.x == pytest.approx(0.25, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            CoherentLabel.from_intensity(-1.0)
        with pytest.raises(ParameterError):
            CoherentLabel(complex(math.inf, 0.0))


class TestPhotonPdf:
    def test_classical_points(self):
        lab = CoherentLabel.from_intensity(1.0)
        assert photon_pdf(0, lab, CLASSICAL) == pytest.approx(math.exp(-1.0), rel=1e-12)
        lab4 = CoherentLabel.from_intensity(4.0)
        assert photon_pdf(2, lab4, CLASSICAL) == pytest.approx(
            math.exp(-4.0) * 16.0 / 2.0, rel=1e-12
        )

    def test_shifted_classical_point(self):
        lab = CoherentLabel.from_intensity(1.0)
        assert photon_pdf(1, lab, P011) == pytest.approx(
            0.5 / (math.e - 1.0), rel=1e-12
        )

    def test_poisson_reduction(self):
        for x in (0.5, 1.0, 4.0):
            lab = CoherentLabel.from_intensity(x)
            for n in range(0, 31):
                ref = math.exp(-x + n * math.log(x) - math.lgamma(n + 1))
                assert photon_pdf(n, lab, CLASSICAL) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_vacuum_limit(self):
        lab = CoherentLabel.from_intensity(0.0)
        assert photon_pdf(0, lab, P011) == 1.0
        assert photon_pdf(3, lab, P011) == 0.0

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            photon_pdf(-1, CoherentLabel.from_intensity(1.0), CLASSICAL)


class TestPhotonDistribution:
    def test_vacuum(self):
        d = photon_distribution(CoherentLabel.from_intensity(0.0), P011)
        assert d.probabilities == (1.0,)
        assert d.cutoff == 0
        assert d.tail_mass == 0.0

    def test_classical_normalization(self):
        d = photon_distribution(
            CoherentLabel.from_intensity(1.0), CLASSICAL, tail_tol=1e-12
        )
        assert sum(d.probabilities) + d.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert d.cutoff == len(d.probabilities) - 1

    def test_deformed_normalization(self):
        d = photon_distribution(
            CoherentLabel.from_intensity(2.0), DeformationParams(1, 0.5, 1),
            tail_tol=1e-10,
        )
        assert sum(d.probabilities) + d.tail_mass == pytest.approx(1.0, abs=1e-9)

    def test_probabilities_in_range(self):
        d = photon_distribution(CoherentLabel.from_intensity(3.0), HALF)
        assert all(0.0 <= q <= 1.0 for q in d.probabilities)

    def test_invalid_tail(self):
        with pytest.raises(ParameterError):
            photon_distribution(CoherentLabel.from_intensity(1.0), P011, tail_tol=2.0)

    def test_mass_reaches_one_at_small_beta(self):
        # a running cumulative mass never reached 1 - 1e-12 here and the call
        # raised after 10^5 terms: the probabilities are now normalised by
        # the sum of the same terms and the cutoff is read from the tail
        d = photon_distribution(
            CoherentLabel.from_intensity(16.0), DeformationParams(0, 0.5, 0)
        )
        assert abs(math.fsum(d.probabilities) - 1.0) <= 1e-12
        assert d.tail_mass <= 1e-12
        assert d.cutoff == len(d.probabilities) - 1

    def test_cutoff_is_the_first_n_with_small_remaining_mass(self):
        d = photon_distribution(
            CoherentLabel.from_intensity(1.5), DeformationParams(0, 1, 0.5), tail_tol=1e-10
        )
        probs = d.probabilities
        assert d.cutoff == 14
        assert 1.0 - math.fsum(probs) <= 1e-10 < 1.0 - math.fsum(probs[:-1])


class TestOverlap:
    def test_self_overlap_is_one(self):
        for p in (CLASSICAL, P111, HALF):
            lab = CoherentLabel(complex(0.7, 0.2))
            assert abs(overlap(lab, lab, p) - 1.0) <= 1e-12

    def test_vacuum_against_state(self):
        lab = CoherentLabel.from_intensity(2.0)
        from wcs import n_function

        ref = 1.0 / math.sqrt(n_function(2.0, P011).value.real)
        got = overlap(CoherentLabel(0.0 + 0.0j), lab, P011)
        assert got.real == pytest.approx(ref, rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-14)

    def test_classical_value(self):
        got = overlap(CoherentLabel(1.0 + 0.0j), CoherentLabel(-1.0 + 0.0j), CLASSICAL)
        assert got.real == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_classical_kernel_with_phase(self):
        z1, z2 = complex(0.3, 0.4), complex(-0.5, 1.1)
        got = overlap(CoherentLabel(z1), CoherentLabel(z2), CLASSICAL)
        ref = cmath.exp(z1.conjugate() * z2 - (abs(z1) ** 2 + abs(z2) ** 2) / 2.0)
        assert abs(got - ref) <= 1e-12

    def test_hermitian_symmetry(self):
        l1, l2 = CoherentLabel(complex(0.4, 0.9)), CoherentLabel(complex(-0.2, 0.5))
        for p in (CLASSICAL, P111):
            assert abs(overlap(l1, l2, p) - overlap(l2, l1, p).conjugate()) <= 1e-13

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cauchy_schwarz(self, re1, im1, re2, im2):
        l1 = CoherentLabel(complex(re1, im1))
        l2 = CoherentLabel(complex(re2, im2))
        for p in (CLASSICAL, P111, HALF):
            assert abs(overlap(l1, l2, p)) <= 1.0 + 1e-10


class TestContinuity:
    def test_coincident_labels(self):
        lab = CoherentLabel(complex(0.4, 0.1))
        assert continuity_defect(lab, lab, P011) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", [CLASSICAL, P011])
    def test_vacuum_label(self, p):
        # the vacuum's amplitudes are (1, 0, 0, ...), read without its log
        vacuum, lab = CoherentLabel(0j), CoherentLabel(complex(0.8, -0.3))
        assert continuity_defect(vacuum, lab, p) <= 1e-15
        assert continuity_defect(lab, vacuum, p) <= 1e-15
        assert continuity_defect(vacuum, vacuum, p) == 0.0

    def test_classical_defect(self):
        d = continuity_defect(
            CoherentLabel(1.0 + 0.0j), CoherentLabel(1.001 + 0.0j), CLASSICAL
        )
        assert d <= 1e-10

    def test_deformed_defect(self):
        d = continuity_defect(
            CoherentLabel(0.5 + 0.0j), CoherentLabel(0.6 + 0.0j), P011
        )
        assert d <= 1e-9

    def test_kernel_distance_decreases(self):
        p = DeformationParams(0.5, 0.75, 0.25)
        base = CoherentLabel(0.8 + 0.0j)
        prev = None
        for k in range(1, 7):
            h = 10.0 ** -k
            val = 2.0 * (1.0 - overlap(base, CoherentLabel(0.8 + h), p).real)
            if prev is not None:
                assert val < prev
            prev = val


class TestAmplitudes:
    def test_norm_convergence(self):
        c = coherent_amplitudes(CoherentLabel(1.0 + 0.0j), CLASSICAL, 60)
        assert sum(abs(a) ** 2 for a in c) == pytest.approx(1.0, abs=1e-12)

    def test_ladder_eigenstate_relation(self):
        z = complex(0.3, 1.1)
        for p in (CLASSICAL, P111, HALF):
            c = coherent_amplitudes(CoherentLabel(z), p, 41)
            for n in range(40):
                assert abs(ladder_up_coeff(n, p) * c[n + 1] - z * c[n]) <= 1e-12

    def test_leading_amplitude(self):
        from wcs import n_function

        c = coherent_amplitudes(CoherentLabel(2.0 + 0.0j), P011, 0)
        assert c[0].real == pytest.approx(
            1.0 / math.sqrt(n_function(4.0, P011).value.real), rel=1e-12
        )


class TestMoments:
    def test_classical_factorial_moments(self):
        lab = CoherentLabel.from_intensity(3.0)
        assert normally_ordered_moment(1, lab, CLASSICAL) == pytest.approx(3.0, rel=1e-11)
        assert normally_ordered_moment(2, lab, CLASSICAL) == pytest.approx(9.0, rel=1e-11)

    def test_shifted_classical_value(self):
        lab = CoherentLabel.from_intensity(1.0)
        assert normally_ordered_moment(1, lab, P011) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-12
        )

    def test_two_paths_agree(self):
        for p in (CLASSICAL, P011, P111, HALF, DeformationParams(1, 0.5, 1)):
            for x in (0.5, 2.0):
                lab = CoherentLabel.from_intensity(x)
                for r in (1, 2, 3):
                    a = normally_ordered_moment(r, lab, p)
                    b = fock_moment_sum(r, lab, p)
                    assert a == pytest.approx(b, rel=1e-8)

    def test_zero_intensity(self):
        lab = CoherentLabel.from_intensity(0.0)
        assert normally_ordered_moment(1, lab, P011) == 0.0
        assert fock_moment_sum(2, lab, P011) == 0.0

    def test_invalid_order(self):
        lab = CoherentLabel.from_intensity(1.0)
        with pytest.raises(ParameterError):
            normally_ordered_moment(0, lab, CLASSICAL)
        with pytest.raises(ParameterError):
            fock_moment_sum(0, lab, CLASSICAL)


class TestMandel:
    def test_classical_is_poissonian(self):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            lab = CoherentLabel.from_intensity(x)
            assert abs(mandel_qz(lab, CLASSICAL)) <= 1e-9
            assert abs(mandel_qm(lab, CLASSICAL)) <= 1e-9

    def test_qz_super_poissonian_branch(self):
        for v in (0.25, 0.5, 0.75):
            lab = CoherentLabel.from_intensity(1.0)
            assert mandel_qz(lab, DeformationParams(0, 1, v)) > 0.0

    def test_qz_goldens(self):
        for x, p, ref in QZ_GOLDENS:
            assert mandel_qz(CoherentLabel.from_intensity(x), p) == pytest.approx(
                ref, rel=1e-9
            )

    def test_qm_goldens(self):
        for x, p, ref in QM_GOLDENS:
            assert mandel_qm(CoherentLabel.from_intensity(x), p) == pytest.approx(
                ref, rel=1e-9
            )

    def test_qz_equals_moment_ratio_bitwise(self):
        # the README grid `wcs mandel --nu 0.5 --x 0.1:10:20` at the CLI's tol
        p, tol = DeformationParams(0.0, 1.0, 0.5), 1e-8
        for i in range(20):
            lab = CoherentLabel.from_intensity(0.1 + (10.0 - 0.1) / 19 * i)
            m1 = normally_ordered_moment(1, lab, p, tol=tol)
            m2 = normally_ordered_moment(2, lab, p, tol=tol)
            assert mandel_qz(lab, p, tol=tol) == (m2 - m1 * m1) / m1

    def test_qz_zero_intensity_guard(self):
        assert mandel_qz(CoherentLabel.from_intensity(0.0), P011) == 0.0

    def test_qm_zero_intensity_guard(self):
        got = mandel_qm(CoherentLabel.from_intensity(0.0), P011)
        assert got == pytest.approx(box(1, P011) - 1.0, rel=1e-12)


class TestQuadratureStats:
    def test_classical_product(self):
        for n in range(0, 26):
            st_ = quadrature_stats(n, CLASSICAL)
            assert st_.product == pytest.approx(0.5, rel=1e-12)

    def test_examples(self):
        assert quadrature_stats(0, P011).product == pytest.approx(1.0, rel=1e-12)
        assert quadrature_stats(1, P111).product == pytest.approx(1.5, rel=1e-12)

    def test_product_tracks_commutator(self):
        s = PhysicalScales(hbar=2.0, mass=3.0, omega=0.7)
        for p in (P011, P111, HALF):
            for n in range(0, 12):
                st_ = quadrature_stats(n, p, s)
                assert st_.product == pytest.approx(
                    0.5 * 2.0 * commutator_diagonal(n, p), rel=1e-12
                )
                assert st_.var_q * st_.var_p == pytest.approx(
                    st_.product ** 2, rel=1e-11
                )

    def test_variance_scales(self):
        s = PhysicalScales(hbar=2.0, mass=3.0, omega=0.7)
        st_ = quadrature_stats(0, CLASSICAL, s)
        assert st_.var_q == pytest.approx(2.0 / (2.0 * 3.0 * 0.7), rel=1e-12)
        assert st_.var_p == pytest.approx(2.0 * 3.0 * 0.7 / 2.0, rel=1e-12)

    def test_vacuum_examples(self):
        assert vacuum_uncertainty(CLASSICAL) == pytest.approx(0.5, rel=1e-13)
        assert vacuum_uncertainty(P011) == pytest.approx(1.0, rel=1e-13)
        assert vacuum_uncertainty(P111) == pytest.approx(0.5, rel=1e-13)


class TestWavefunctions:
    def test_origin_is_quartic_root(self):
        for p in (CLASSICAL, P111, DeformationParams(0.3, 0.6, 0.1)):
            assert ground_wavefunction(0.0, p) == pytest.approx(
                math.pi ** -0.25, rel=1e-13
            )

    def test_classical_gaussian(self):
        for x in (0.0, 0.4, 1.0, 2.0, 3.0):
            ref = math.pi ** -0.25 * math.exp(-x * x / 2.0)
            assert ground_wavefunction(x, CLASSICAL) == pytest.approx(ref, rel=1e-10)

    def test_classical_hermite_ladder(self):
        for x in (0.3, 1.0, 2.2):
            g = math.pi ** -0.25 * math.exp(-x * x / 2.0)
            assert excited_wavefunction(1, x, CLASSICAL) == pytest.approx(
                math.sqrt(2.0) * x * g, rel=1e-10
            )
            assert excited_wavefunction(2, x, CLASSICAL) == pytest.approx(
                (2.0 * x * x - 1.0) / math.sqrt(2.0) * g, rel=1e-10
            )
            assert excited_wavefunction(3, x, CLASSICAL) == pytest.approx(
                (2.0 * x ** 3 - 3.0 * x) / math.sqrt(3.0) * g, rel=1e-9
            )

    def test_oracle_goldens(self):
        # 40-digit series oracle values, hbar = m = omega = 1
        cases = [
            (1.0, P011, 0.54439961463815221, 0.54439961463815221),
            (1.0, P111, 0.57475952893916703, 0.81283272092894142),
            (1.0, HALF, 0.32367109347904962, 0.56536354099842264),
            (2.5, HALF, 0.10880567158311306, 0.3005006540601238),
        ]
        for x, p, ref0, ref1 in cases:
            assert ground_wavefunction(x, p) == pytest.approx(ref0, rel=1e-12)
            assert excited_wavefunction(1, x, p) == pytest.approx(ref1, rel=1e-12)

    def test_first_state_closed_form(self):
        for p in (P111, DeformationParams(1, 0.5, 1), DeformationParams(0.5, 0.75, 0.5)):
            f1 = math.exp(-0.5 * gen_factorial(1, p).log_abs)
            for x in [0.25 * i for i in range(13)]:
                ref = 2.0 * math.sqrt(0.5) * x ** p.beta * f1 * ground_wavefunction(x, p)
                got = excited_wavefunction(1, x, p)
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_two_summation_orders(self):
        # independent plain-loop accumulation of the ground series
        p, x = P011, 0.5
        total = 0.0
        n = 0
        while True:
            t = (-1.0) ** n * math.exp(
                2.0 * p.beta * n * math.log(x) - log_gen_double_factorial(2 * n, p)
            )
            total += t
            if abs(t) < 1e-18 and n > 2:
                break
            n += 1
        ref = math.pi ** -0.25 * total
        assert ground_wavefunction(x, p) == pytest.approx(ref, rel=1e-9)

    def test_k_zero_matches_ground(self):
        for x in (0.0, 0.7, 1.9):
            assert excited_wavefunction(0, x, HALF) == ground_wavefunction(x, HALF)

    def test_cancellation_flag(self):
        _, flagged = wavefunction_sample(0, 6.0, CLASSICAL, S1)
        assert flagged
        _, clean = wavefunction_sample(0, 1.0, CLASSICAL, S1)
        assert not clean

    @pytest.mark.parametrize("x", [6.0, 8.0])
    def test_cancelled_value_raises(self, x):
        # the flagged sums were 1.6e-7 at x = 6 and 0.43 at x = 8, against
        # a true pi^(-1/4) exp(-x^2/2) of 1.1e-8 and 9.5e-15
        with pytest.raises(NumericalRangeError, match=re.escape(f"x = {x} for {CLASSICAL}")):
            ground_wavefunction(x, CLASSICAL, S1)
        with pytest.raises(NumericalRangeError, match=f"level 2 at x = {x}"):
            excited_wavefunction(2, x, CLASSICAL, S1)

    def test_clean_value_returns(self):
        ref = math.pi**-0.25 * math.exp(-4.5)
        assert ground_wavefunction(3.0, CLASSICAL, S1) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("x", [10.0, 12.0])
    def test_overflowing_lattice_raises(self, x):
        # x^j overflows on the lattice: NaN at x = 10, inf - inf at x = 12
        with pytest.raises(NumericalRangeError, match="lattice"):
            wavefunction_sample(0, x, CLASSICAL, S1)

    @pytest.mark.parametrize(
        "p", [CLASSICAL, HALF, DeformationParams(1.0, 0.1, 0.5), DeformationParams(0.0, 0.3, 0.5)]
    )
    def test_bitwise_equal_to_slot_loop(self, p):
        # every level, in an order that builds the level tables as it goes
        # (x rising, k rising), in one whose first sample builds the
        # longest table (both falling), and again after the tables are
        # dropped; most samples read a table longer than their lattice.
        # x is in oscillator lengths
        xs = (0.0, 0.1, 0.5, 1.0, 1.7, 2.5, 3.0, 4.0)
        for s in (S1, *WAVE_SCALES):
            want = {(k, x): _wave_outcome(_wavefunction_slot_loop, k, _at(x, s), p, s)
                    for k in range(13) for x in xs}
            for order in (1, -1, 1):
                series.clear_caches()
                for x in xs[::order]:
                    for k in range(13)[::order]:
                        got = _wave_outcome(wavefunction_sample, k, _at(x, s), p, s)
                        assert got == want[k, x], (s, k, x)
                # each table is read by many samples
                info = coherent._raised_levels.cache_info()
                assert info.misses >= 1 and info.hits > 10 * info.misses

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.05, 1.0),
        st.floats(0.01, 1.0),
        st.sampled_from((S1, *WAVE_SCALES)),
        st.lists(st.tuples(st.integers(0, 12), st.floats(0.0, 4.0)), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_slot_loop_property(self, a, b, u, s, samples):
        # nu in (alpha - 1, alpha + 2]; each sample reads the table as the
        # samples before it left it
        p = DeformationParams(a, b, a - 1.0 + 3.0 * u)
        for k, x in samples:
            want = _wave_outcome(_wavefunction_slot_loop, k, _at(x, s), p, s)
            assert _wave_outcome(wavefunction_sample, k, _at(x, s), p, s) == want

    def test_si_scales_match_the_hermite_functions(self):
        # in oscillator units u = x / length the classical states are
        # (m omega / pi hbar)^(1/4) e^(-u^2/2) times 1 and sqrt(2) u; the
        # samples near u = 5 are flagged, yet within 1e-10 of those
        p, s = CLASSICAL, SI
        norm = (s.mass * s.omega / (math.pi * s.hbar)) ** 0.25
        for i in range(51):
            u = 0.1 * i
            g = math.exp(-0.5 * u * u)
            psi0 = wavefunction_sample(0, _at(u, s), p, s)[0] / norm
            psi1 = wavefunction_sample(1, _at(u, s), p, s)[0] / norm
            assert abs(psi0 - g) <= 1e-10 and abs(psi1 - math.sqrt(2.0) * u * g) <= 1e-10, u

    def test_overflowing_power_raises_typed(self):
        # at u = 20 the lattice runs to about 800 slots and u^j overflows,
        # as x^j does at unit scales from x = 10 (test_overflowing_lattice_raises);
        # the error is typed and numpy's overflow is not reported as a warning
        x = _at(20.0, SI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 12):
                with pytest.raises(NumericalRangeError, match=f"lattice series at x = {x}"):
                    wavefunction_sample(k, x, CLASSICAL, SI)

    def test_table_past_double_range_is_silent(self):
        # at beta = 1e-9, [n] ~ beta n, so 1 / [2j]!! overflows within the
        # 128-slot table; at x = 0 a sample reads slots below that, with no
        # numpy warning
        p = DeformationParams(1.0, 1e-9, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wavefunction_sample(0, 0.0, p) == (math.pi**-0.25, False)
            assert wavefunction_sample(12, 0.0, p)[1] is False

    @pytest.mark.parametrize("scales", [(1e300, 1e-300, 1e-300), (1e-300, 1e300, 1e300)])
    def test_scales_past_double_range_are_refused(self, scales):
        # m omega / hbar is 0 and inf: wavefunction_sample once raised an
        # untyped ValueError and warned from numpy, and quadrature_stats
        # raised ZeroDivisionError and returned var_q = 0.0
        with pytest.raises(ParameterError, match=r"^mass \* omega / hbar must lie in"):
            wavefunction_sample(0, 1.0, HALF, PhysicalScales(*scales))
        with pytest.raises(ParameterError, match=r"^mass \* omega / hbar must lie in"):
            quadrature_stats(3, HALF, PhysicalScales(*scales))

    def test_readme_grid_builds_one_level_table(self, monkeypatch):
        # `wcs wavefunction --k 0..3 --x 0:3:31`, in the CLI's order: one
        # build at the floor length; each sample's coefficients equal those
        # of a table built at exactly its lattice length plus its level
        samples = [(k, 3.0 * j / 30) for k in range(4) for j in range(31)]
        read = []  # each sample's coefficients
        lattice_sum = coherent._lattice_sum
        monkeypatch.setattr(coherent, "_lattice_sum",
                            lambda c, *args: read.append(c.copy()) or lattice_sum(c, *args))
        series.clear_caches()
        for k, x in samples:
            wavefunction_sample(k, x, CLASSICAL, S1)
        info = coherent._raised_levels.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert max(len(c) + k for (k, _), c in zip(samples, read)) <= coherent._MIN_LENGTH
        rows, reach, log_tops = coherent._raised_levels(CLASSICAL, coherent._MIN_LENGTH)  # a hit
        assert rows.shape == (13, coherent._MIN_LENGTH) and not rows.flags.writeable
        assert len(reach) == coherent._MIN_LENGTH // 2 - 1 and reach.readonly
        # each row's bound is the log of its largest |slot|
        assert log_tops == tuple(math.log(max(abs(c) for c in row)) for row in rows.tolist())
        assert coherent._raised_levels.cache_info().hits == info.hits + 1
        exact = coherent._raised_levels.__wrapped__  # uncached
        for (k, _), c in zip(samples, read):
            assert exact(CLASSICAL, len(c) + k)[0][k, : len(c)].tobytes() == c.tobytes()

    def test_level_tables_stay_bounded(self):
        series.clear_caches()
        rng = random.Random(28)
        for _ in range(100):
            p = DeformationParams(rng.random(), 0.1 + 0.9 * rng.random(), rng.random())
            wavefunction_sample(rng.randrange(13), 3.0 * rng.random(), p)
            info = coherent._raised_levels.cache_info()
            assert info.currsize <= info.maxsize == 4
        assert info.currsize == 4 and info.misses > 4
        series.clear_caches()
        assert coherent._raised_levels.cache_info().currsize == 0

    def test_odd_levels_at_the_origin_read_the_floor_table(self):
        # at x = 0 every ground term past the first is 0, so J = 0 and the
        # lattice is k + 4 slots; an odd level's slots there are all 0
        for p in (CLASSICAL, HALF, DeformationParams(1.0, 1e-9, 0.01)):
            series.clear_caches()
            for k in range(1, 13, 2):
                assert wavefunction_sample(k, 0.0, p) == (0.0, False)
            info = coherent._raised_levels.cache_info()
            assert (info.misses, info.currsize) == (1, 1)
            coherent._raised_levels(p, coherent._MIN_LENGTH)
            assert coherent._raised_levels.cache_info().hits == info.hits + 1

    def test_slots_past_double_range_beyond_the_lattice(self):
        # at beta = 1e-9, [n] ~ beta n and 1 / [2j]!! overflows within the
        # floor table; at m omega / hbar = 1e-12 the ground terms fall from
        # the first, so the lattice stops short of those slots and the
        # samples return, equal to the slot loop's, with no numpy warning
        p, s = DeformationParams(1.0, 1e-9, 0.01), PhysicalScales(1.0, 1e-12, 1.0)
        series.clear_caches()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(13):
                for x in (0.5, 3.0, 1e6):
                    value, flag = wavefunction_sample(k, x, p, s)
                    assert math.isfinite(value) and not flag
                    assert (value.hex(), flag) == _wave_outcome(_wavefunction_slot_loop, k, x, p, s)
        rows, _, log_tops = coherent._raised_levels(p, coherent._MIN_LENGTH)
        assert not np.isfinite(rows[0]).all()
        # a row with a non-finite slot has no bound, so its samples'
        # lattice sums run with numpy's warnings silenced
        finite = np.isfinite(rows).all(axis=1).tolist()
        assert [t == math.inf for t in log_tops] == [not f for f in finite]
        assert coherent._raised_levels.cache_info().currsize == 1

    @pytest.mark.parametrize("p", [DeformationParams(0.0, 0.1, 0.0), DeformationParams(0.5, 0.1, 1.0)])
    def test_tables_double_where_the_lattice_does_not_fit(self, p):
        # at beta = 0.1 the brackets grow slowly and the ground terms at
        # x = 3 reach past the floor table: it doubles, and the samples
        # equal the slot loop's
        series.clear_caches()
        for k in (0, 1, 5, 12):
            assert _wave_outcome(wavefunction_sample, k, 3.0, p) == _wave_outcome(
                _wavefunction_slot_loop, k, 3.0, p)
        assert coherent._raised_levels.cache_info().misses > 1

    @pytest.mark.parametrize(
        "x, why",
        [(1e200, "the ground terms peak past the longest lattice, 40028 slots"),
         (40.0, "the ground terms peak past double range")],
    )
    def test_refused_before_a_level_table_is_built(self, x, why):
        # y = x^2: at x = 1e200 the terms rise past every table; at x = 40
        # they peak near e^796, at j = 799
        series.clear_caches()
        with pytest.raises(NumericalRangeError) as err:
            wavefunction_sample(0, x, CLASSICAL)
        assert str(err.value) == f"wavefunction_sample: lattice series at x = {x} for {CLASSICAL}: {why}"
        assert coherent._raised_levels.cache_info().misses == 0

    def test_si_scales_size_as_unit_scales(self, monkeypatch):
        # a sample sees its scales only through u = sqrt(m omega / hbar)
        # x^beta: at SI scales each lattice is as long as that of the same u
        # at unit scales, and the samples' classes match
        lengths = []
        lattice_sum = coherent._lattice_sum
        monkeypatch.setattr(coherent, "_lattice_sum",
                            lambda c, *args: lengths.append(len(c)) or lattice_sum(c, *args))

        def sample(k, x, p, *scales):
            del lengths[:]
            outcome = _wave_outcome(wavefunction_sample, k, x, p, *scales)
            return outcome if isinstance(outcome, type) else outcome[1], lengths[:]

        length = math.sqrt(SI.hbar / (SI.mass * SI.omega))
        for p in (CLASSICAL, HALF):
            for u in (0.0, 0.5, 2.0, 5.0, 12.0, 20.0, 40.0):
                for k in (0, 1, 12):
                    unit = sample(k, u ** (1.0 / p.beta), p)
                    assert sample(k, (u * length) ** (1.0 / p.beta), p, SI) == unit, (p, u, k)

    def test_bounded_sums_equal_the_silenced_path(self, monkeypatch):
        # each sample's lattice sum runs with numpy's warnings silenced only
        # where its row bound lets a power or a term leave double range; it
        # returns the bits, or raises the message, of the sum that always
        # silences them.  The grid has samples on both sides of the bound:
        # u^j overflows at (0, 1, 0) from x = 30 and at (0.5, 0.1, 0) at
        # x = 1e6, and beta = 1e-9 has rows with infinite slots
        def outcome(k, x, p, s):
            try:
                value, cancel = wavefunction_sample(k, x, p, s)
            except NumericalRangeError as exc:
                return str(exc)
            return value.hex(), cancel

        grid = [(p, S1, x) for p in (CLASSICAL, DeformationParams(0.3, 0.7, 0.2), HALF,
                                     DeformationParams(1.0, 1e-9, 0.01))
                for x in (0.0, 0.5, 2.1, 8.0, 30.0, 37.0)]
        grid += [(DeformationParams(0.5, 0.1, 0.0), S1, x) for x in (0.0, 3.0, 1e6)]
        grid += [(p, SI, _at(u, SI)) for p in (CLASSICAL, HALF) for u in (0.0, 2.0, 5.0, 30.0)]
        lattice_sum, sides = coherent._lattice_sum, set()

        def gated(c, y, label, log_top):
            reach = max(log_top, 0.0) + (len(c) - 1) * max(math.log(y) if y else 0.0, 0.0)
            sides.add(reach < gammafn._MAX_FINITE_LOG - 1.0)
            return lattice_sum(c, y, label, log_top)

        monkeypatch.setattr(coherent, "_lattice_sum", gated)
        got = {(p, s, x, k): outcome(k, x, p, s) for p, s, x in grid for k in (0, 1, 5, 12)}
        assert sides == {True, False}
        monkeypatch.setattr(coherent, "_lattice_sum", lambda c, y, label, log_top: lattice_sum(c, y, label))
        for (p, s, x, k), want in got.items():
            assert outcome(k, x, p, s) == want, (p, s, x, k)
        assert sum(isinstance(v, str) for v in got.values()) >= 8

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            ground_wavefunction(-1.0, CLASSICAL)
        with pytest.raises(ParameterError):
            excited_wavefunction(-1, 1.0, CLASSICAL)
        with pytest.raises(ParameterError):
            excited_wavefunction(13, 1.0, CLASSICAL)


def _at(u, s):
    """u oscillator lengths sqrt(hbar / (m omega)) in the units of s."""
    return u * math.sqrt(s.hbar / (s.mass * s.omega))


def _wavefunction_slot_loop(k, x, p, s=S1):
    """Reference for wavefunction_sample: one bracket lookup per slot, its own
    lattice sizing and ground-state lattice loop, and the raising operator
    applied slot by slot in oscillator units, on n + k slots of which the
    first n, those the lattice sums, see no truncation."""
    inv_length_sq = s.mass * s.omega / s.hbar
    log_y = -math.inf
    if x > 0.0:
        log_y = math.log(inv_length_sq) + 2.0 * p.beta * math.log(x)
    n = 2 * _ground_reach(log_y, p) + k + 4
    if n + k > LONGEST_TABLE:
        raise NumericalRangeError("the ground terms reach past the longest lattice")
    n_slots = n + k
    boxes = [0.0] + [math.exp(log_box(j, p)) for j in range(1, n_slots + 1)]
    # slot 2j holds (-1)^j / [2j]!!, odd slots are zero
    coeffs = [0.0] * n_slots
    coeffs[0] = val = 1.0
    for j in range(2, n_slots, 2):
        val *= -1.0 / boxes[j]
        coeffs[j] = val
    h = math.sqrt(0.5)
    for _ in range(k):
        nxt = [0.0] * n_slots
        for j in range(n_slots):
            acc = 0.0
            if j >= 1:
                acc += h * coeffs[j - 1]
            if j + 1 < n_slots:
                acc -= h * coeffs[j + 1] * boxes[j + 1]
            nxt[j] = acc
        coeffs = nxt
    scale = (inv_length_sq / math.pi) ** 0.25 * math.exp(-0.5 * log_gen_factorial(k, p))
    u = math.sqrt(inv_length_sq) * x**p.beta
    terms = []
    uj = 1.0
    max_abs = 0.0
    for c in coeffs[:n]:
        t = c * uj
        terms.append(t)
        max_abs = max(max_abs, abs(t))
        uj *= u
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # finite terms past the range; inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise NumericalRangeError("lattice terms or their sum beyond double range")
    cancel = abs(total) < max_abs * 1e-8 and max_abs > 0.0
    return scale * total, cancel


LONGEST_TABLE = 40028  # the longest level table, 2 * 20000 + 2 * 12 + 4 slots


def _ground_reach(log_y, p):
    """J, walking j up: the ground terms y^j / [2j]!! rise while
    [2j+2] < y, and J is the last j from that peak on whose term is at
    least 2^-62, in logs, log [2j]!! the running sum of log [2], log [4],
    ..."""
    cut = -62.0 * math.log(2.0)
    j, log_fact2 = 0, 0.0  # log [2j]!!
    while log_box(2 * j + 2, p) < log_y:
        j += 1
        log_fact2 += log_box(2 * j, p)
        if 2 * j + 2 >= LONGEST_TABLE:
            raise NumericalRangeError("the ground terms peak past the longest lattice")
    if j * log_y - log_fact2 > math.log(sys.float_info.max):
        raise NumericalRangeError("the ground terms peak past double range")
    while (j + 1) * log_y - (log_fact2 + log_box(2 * j + 2, p)) >= cut:
        j += 1
        log_fact2 += log_box(2 * j, p)
    return j


def _wave_outcome(fn, *args):
    """fn(*args) with its value as hex, so equal means equal bits, or the
    type of the wcs error it raised."""
    try:
        value, cancel = fn(*args)
    except (ConvergenceError, NumericalRangeError) as exc:
        return type(exc)
    return value.hex(), cancel


class TestThreeTermDefect:
    """Number states of the algebra satisfy A psi_k = sqrt([k]) psi_(k-1),
    A = (u + D) / sqrt(2).  wavefunction_sample's psi_k, k raisings by
    (u - D) / sqrt(2) of the lattice ground state over sqrt([k]!), meets it
    to rounding at (0, 1, 0) only: on the lattice [D, u] u^j =
    ([j+1] - [j]) u^j depends on the power j, not on the level.  The
    relative defect |A row_k - [k] row_(k-1)| / |[k] row_(k-1)|, both rows
    summed on u, is pinned at its measured size, so that a change of what
    psi_k means is seen."""

    @staticmethod
    def _defect(p, k, u, m=256):
        rows = coherent._raised_levels(p, m)[0]
        b = _brackets(p, m - 1)
        n = m - k - 1  # the slots of row k whose lowering reads row k alone
        h = math.sqrt(0.5)
        lowered = h * rows[k, 1 : n + 1] * b[1 : n + 1]
        lowered[1:] += h * rows[k, : n - 1]
        powers = u ** np.arange(n, dtype=float)
        got = math.fsum((lowered * powers).tolist())
        want = math.fsum((b[k] * rows[k - 1, :n] * powers).tolist())
        return abs(got - want) / abs(want)

    def test_rounding_at_the_classical_triple(self):
        for k in range(1, 13):
            for u in (0.5, 1.0, 2.0):
                assert self._defect(CLASSICAL, k, u) <= 1e-11, (k, u)
        assert max(self._defect(CLASSICAL, k, u) for k in (1, 2, 3) for u in (0.5, 1.0, 2.0)) <= 3e-14

    @pytest.mark.parametrize(
        "triple, sizes",
        [((0.3, 0.7, 0.2), (0.0324, 0.165, 1.68)),
         ((0.5, 0.5, 0.3), (0.0653, 0.354, 3.65)),
         ((1.0, 1.0, 1.0), (0.258, 1.15, 10.3)),
         ((0.0, 0.5, 0.0), (0.179, 0.790, 3.79))],
    )
    def test_measured_size_at_deformed_triples(self, triple, sizes):
        # k = 1 at u = 0.5, 1 and 2
        p = DeformationParams(*triple)
        got = [self._defect(p, 1, u) for u in (0.5, 1.0, 2.0)]
        assert got == pytest.approx(sizes, rel=5e-3)


class TestTermBudgets:
    """Every Fock-series sum raises ConvergenceError when its term budget
    runs out before the stopping rule is met."""

    LABEL = CoherentLabel.from_intensity(20.0)

    def test_photon_distribution(self):
        with pytest.raises(ConvergenceError, match="photon_distribution"):
            photon_distribution(self.LABEL, CLASSICAL, max_n=10)

    def test_fock_moment_sum(self):
        with pytest.raises(ConvergenceError, match="fock_moment_sum"):
            fock_moment_sum(2, self.LABEL, CLASSICAL, max_terms=10)

    def test_mandel_qm(self):
        with pytest.raises(ConvergenceError, match="mandel_qm"):
            mandel_qm(self.LABEL, CLASSICAL, max_terms=10)

    def test_continuity_defect(self):
        with pytest.raises(ConvergenceError, match="continuity_defect"):
            continuity_defect(self.LABEL, CoherentLabel(1.0 + 0.0j), CLASSICAL, max_terms=10)


class TestFockSumStart:
    def test_sum_starts_at_the_order(self):
        # classically <(A+)^r A^r> = x^r; the terms below n = r are zero and
        # must not end the sum before it starts
        for r in (1, 3, 5):
            got = fock_moment_sum(r, CoherentLabel.from_intensity(1e-3), CLASSICAL)
            assert got == pytest.approx(1e-3**r, rel=1e-12, abs=0)


# the photon-stats benchmark triples, on a log grid of x in [0.1, 100]
PHOTON_TRIPLES = [
    (0.0, 1.0, 0.0),
    (0.0, 1.0, 0.5),
    (1.0, 1.0, 0.5),
    (1.0, 0.5, 1.0),
    (0.0, 0.5, 0.0),
    (0.5, 0.7, 0.2),
    (0.3, 0.9, 1.5),
    (0.0, 0.3, 0.5),
]
X_GRID = [0.1 * 1000.0 ** (j / 12) for j in range(13)]


class TestPositiveSums:
    """fock_moment_sum and mandel_qm hand math.fsum only the terms that can
    reach the correctly rounded sum; the result equals, bit for bit, fsum
    over every kept term of the series."""

    @staticmethod
    def _sums(p):
        out = []
        for x in X_GRID:
            lab = CoherentLabel.from_intensity(x)
            try:
                out.append(
                    (fock_moment_sum(1, lab, p), fock_moment_sum(2, lab, p), mandel_qm(lab, p))
                )
            except ConvergenceError:
                out.append(None)
        return out

    @pytest.mark.parametrize("triple", PHOTON_TRIPLES)
    def test_equal_to_fsum_over_every_term(self, triple, monkeypatch):
        p = DeformationParams(*triple)
        got = self._sums(p)
        assert got[0] is not None
        monkeypatch.setattr(coherent, "_positive_fsum", lambda t, label: math.fsum(t.tolist()))
        assert self._sums(p) == got


def test_fsum_lists_stay_short(monkeypatch):
    """A work count: over the photon-stats sweep (the eight triples at 48
    log-spaced x in [0.1, 100], the benchmark op's six calls), math.fsum
    gets no list longer than _FSUM_MAX; the long sums, thousands of terms
    at small beta and large x, go through _exact_sum's numpy rounds."""
    fsum_lengths, exact_lengths = [], []
    fsum, exact_sum = math.fsum, series._exact_sum

    def counted_fsum(terms):
        fsum_lengths.append(len(terms))
        return fsum(terms)

    def counted_exact_sum(terms, label):
        exact_lengths.append(len(terms))
        return exact_sum(terms, label)

    monkeypatch.setattr(math, "fsum", counted_fsum)
    monkeypatch.setattr(series, "_exact_sum", counted_exact_sum)
    monkeypatch.setattr(coherent, "_exact_sum", counted_exact_sum)
    for triple in PHOTON_TRIPLES:
        p = DeformationParams(*triple)
        for j in range(48):
            lab = CoherentLabel.from_intensity(0.1 * 1000.0 ** (j / 47))
            for call in (
                lambda: log_n_function(lab.x, p),
                lambda: photon_distribution(lab, p),
                lambda: mandel_qz(lab, p),
                lambda: mandel_qm(lab, p),
                lambda: [normally_ordered_moment(r, lab, p) for r in (1, 2)],
                lambda: [fock_moment_sum(r, lab, p) for r in (1, 2)],
            ):
                try:
                    call()
                except ConvergenceError:
                    pass
    assert max(exact_lengths) > 10 * series._FSUM_MAX
    assert max(fsum_lengths) <= series._FSUM_MAX


def _mp_weights(x, p, dps):
    """x^n / [n]! for n = 0, 1, ... at dps digits, [n]! from its Gamma closed
    form, until a term drops below 10^-(dps+5) of the running sum."""
    with mpmath.workdps(dps):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg, lx = mpmath.loggamma, mpmath.log(x)
        log_prod, ws, n = mpmath.mpf(0), [mpmath.mpf(1)], 0
        eps, total = mpmath.mpf(10) ** (-dps - 5), ws[0]
        while n <= 10 or ws[-1] >= eps * total:
            n += 1
            log_prod += lg(b * n + 1) - lg(b * n + 1 - a)
            log_fact = log_prod + lg(b * n + 1 - a + v) - lg(1 - a + v)
            ws.append(mpmath.exp(n * lx - log_fact))
            total += ws[-1]
        return ws


class TestMpmathOracle:
    """Moments and Q_M against brute-force Fock sums at 40-50 digits, so the
    two moment routes are each checked against arithmetic they do not share."""

    @pytest.mark.parametrize("p", [CLASSICAL, P011, P111, HALF, DeformationParams(0, 0.5, 0)])
    def test_moments(self, p):
        for x in (0.5, 2.0, 5.0):
            ws = _mp_weights(x, p, 40)
            lab = CoherentLabel.from_intensity(x)
            for r in (1, 2, 3):
                with mpmath.workdps(40):
                    ref = float(sum(mpmath.ff(n, r) * w for n, w in enumerate(ws)) / sum(ws))
                assert normally_ordered_moment(r, lab, p) == pytest.approx(ref, rel=1e-11)
                assert fock_moment_sum(r, lab, p) == pytest.approx(ref, rel=1e-11)

    def test_qm_on_the_readme_grid(self):
        # mandel_qm sums Q_M + 1 = <[N+1] - [N]>, a mean of positive terms
        # near 1, and cancels only in the final - 1: the worst error on this
        # grid is 5.05e-17 (1 + x), held to 3 times that
        p = DeformationParams(0, 1, 0.5)
        for i in range(20):
            x = 0.1 + i * (10.0 - 0.1) / 19
            ws = _mp_weights(x, p, 50)
            with mpmath.workdps(50):
                a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
                lg = mpmath.loggamma
                box_mp = [0] + [
                    mpmath.exp(lg(b * n + 1) - lg(b * n + 1 - a) + lg(b * n + 1 - a + v)
                               - lg(b * (n - 1) + 1 - a + v))
                    for n in range(1, len(ws))
                ]
                e1 = sum(c * w for c, w in zip(box_mp, ws)) / sum(ws)
                e2 = sum(c * c * w for c, w in zip(box_mp, ws)) / sum(ws)
                ref = float((e2 - e1 * e1) / e1 - 1)
            assert abs(mandel_qm(CoherentLabel.from_intensity(x), p) - ref) <= 1.5e-16 * (1 + x)


def _mp_fock_moments(x, p, orders, dps=40):
    """sum_n n!/(n-r)! w_n / sum_n w_n for each r in orders at dps digits,
    w_n = x^n / [n]! with [n]! from its Gamma closed form, summed until a
    term drops below 10^-(dps+5) of the running sum."""
    with mpmath.workdps(dps):
        a, b, v = (mpmath.mpf(t) for t in (p.alpha, p.beta, p.nu))
        lg, lx = mpmath.loggamma, mpmath.log(x)
        eps, log_w = mpmath.mpf(10) ** (-dps - 5), lg(1 - a + v)
        n, w, total = 0, mpmath.mpf(1), mpmath.mpf(1)
        sums = [mpmath.mpf(0)] * len(orders)
        while n <= 10 or w >= eps * total:
            n += 1
            log_w += lx - lg(b * n + 1) + lg(b * n + 1 - a) if a else lx
            w = mpmath.exp(log_w - lg(b * n + 1 - a + v))
            total += w
            sums = [acc + math.perm(n, r) * w for acc, r in zip(sums, orders)]
        return [float(acc / total) for acc in sums]


class TestFockRouteAccuracy:
    """fock_moment_sum against 40-digit Fock sums at every photon-stats
    triple and x on X_GRID where log N converges within its default 10^4
    terms (98 points).  The bound is the largest error measured, 1.476e-12
    at (0, 0.5, 0), x = 56.2, r = 3: the rounding of log-terms near
    log N = x^2, not the stopping rule, which holds each r-th series to
    1e-12 of its own sum."""

    WORST = 1.48e-12

    @pytest.mark.parametrize("triple", PHOTON_TRIPLES)
    def test_against_mpmath(self, triple):
        p = DeformationParams(*triple)
        for x in X_GRID:
            try:
                log_n_function(x, p)
            except ConvergenceError:
                continue
            lab = CoherentLabel.from_intensity(x)
            for r, ref in zip((1, 2, 3), _mp_fock_moments(x, p, (1, 2, 3))):
                assert fock_moment_sum(r, lab, p) == pytest.approx(ref, rel=self.WORST, abs=0)

    def test_orders_beyond_the_bulk(self):
        # classically <(A+)^r A^r> = x^r.  At x = 1e-3 N's series keeps
        # n <= 6, so from r = 5 its terms alone would miss a share x^2 / 2
        # of the moment; the r-th series starts at n = r instead
        lab = CoherentLabel.from_intensity(1e-3)
        for r in range(1, 9):
            assert fock_moment_sum(r, lab, CLASSICAL) == pytest.approx(1e-3**r, rel=1e-12, abs=0)

    @pytest.mark.parametrize("r", [20, 60, 120, 150])
    def test_large_orders_are_x_to_the_r(self, r):
        # the terms n!/(n-r)! p(n) peak near n = r + x, past where N's own
        # series stops; at r = 150 the moment, 1e300, is near the top of
        # double range
        got = fock_moment_sum(r, CoherentLabel.from_intensity(100.0), CLASSICAL)
        assert got == pytest.approx(100.0**r, rel=1e-12, abs=0)


class TestRandomizedTwoPath:
    def test_continuity_defect_random_pairs(self):
        rng = random.Random(20260814)
        triples = [CLASSICAL, P011, P111, HALF]
        for _ in range(25):
            p = rng.choice(triples)
            z1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            z2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            d = continuity_defect(CoherentLabel(z1), CoherentLabel(z2), p)
            assert d <= 1e-9
