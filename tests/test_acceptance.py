"""End-to-end acceptance checks.

Each test covers one numbered criterion; the conftest hook prints a one-line
PASS/FAIL summary per criterion after the run.  Reference values come from
independent oracles: exact integer factorials, closed-form classical
formulas, scipy special functions, exact rational determinants, and frozen
values from a 40-digit brute-force Fock-sum evaluation.
"""

import json
import math
import random
from fractions import Fraction

import pytest
import scipy.special as sp

from wcs import (
    CoherentLabel,
    DeformationParams,
    PhysicalScales,
    carleman_classify,
    classify_exponent,
    coherent_amplitudes,
    continuity_defect,
    energy_level,
    excited_wavefunction,
    fock_moment_sum,
    gen_factorial,
    ground_wavefunction,
    hankel_hadamard,
    ladder_up_coeff,
    log_factorial_asymptotic,
    log_gen_factorial,
    mandel_qm,
    mandel_qz,
    normally_ordered_moment,
    photon_pdf,
    quadrature_stats,
    vacuum_uncertainty,
    verify_moments,
    weight_wright,
)
from wcs.cli import main as cli_main

CLASSICAL = DeformationParams(0.0, 1.0, 0.0)


def test_criterion_01_classical_reduction():
    """classical limit: factorials, Poisson pdf, zero Mandel, oscillator"""
    for n in range(0, 21):
        assert gen_factorial(n, CLASSICAL).to_float() == pytest.approx(
            float(math.factorial(n)), rel=1e-12
        )
    for x in (0.5, 1.0, 4.0):
        lab = CoherentLabel.from_intensity(x)
        for n in range(0, 31):
            poisson = math.exp(-x + n * math.log(x) - math.lgamma(n + 1))
            assert photon_pdf(n, lab, CLASSICAL) == pytest.approx(poisson, rel=1e-10, abs=0)
    for x in [0.1 * (1.585 ** k) for k in range(11)]:  # log-spaced [0.1, 10]
        lab = CoherentLabel.from_intensity(x)
        assert abs(mandel_qz(lab, CLASSICAL)) <= 1e-9
        assert abs(mandel_qm(lab, CLASSICAL)) <= 1e-9
    scales = PhysicalScales(hbar=2.0, mass=3.0, omega=0.7)
    for n in range(0, 26):
        assert energy_level(n, CLASSICAL) == pytest.approx(n + 0.5, rel=1e-12)
        assert energy_level(n, CLASSICAL, scales) == pytest.approx(
            2.0 * 0.7 * (n + 0.5), rel=1e-12
        )
        assert quadrature_stats(n, CLASSICAL).product == pytest.approx(0.5, rel=1e-12)
        assert quadrature_stats(n, CLASSICAL, scales).product == pytest.approx(
            1.0, rel=1e-12
        )


def test_criterion_02_vacuum_uncertainty_range():
    """vacuum uncertainty sweeps from hbar/2 at nu=0 to hbar at nu=1"""
    assert vacuum_uncertainty(DeformationParams(0, 1, 0)) == pytest.approx(
        0.5, abs=1e-10
    )
    assert vacuum_uncertainty(DeformationParams(0, 1, 1)) == pytest.approx(
        1.0, abs=1e-10
    )
    prev = 0.5 - 1e-12
    for k in range(21):
        v = k / 20.0
        got = vacuum_uncertainty(DeformationParams(0.0, 1.0, v))
        assert got == pytest.approx(0.5 * (1.0 + v), abs=1e-10)
        assert got > prev
        prev = got
    s = PhysicalScales(hbar=3.0)
    assert vacuum_uncertainty(DeformationParams(0, 1, 1), s) == pytest.approx(
        3.0, abs=1e-10
    )


def test_criterion_03_mandel_signs_and_goldens():
    """Mandel Q_z: zero/positive branches plus frozen deformed-sweep goldens"""
    lab = CoherentLabel.from_intensity(1.0)
    assert abs(mandel_qz(lab, DeformationParams(0, 1, 0))) <= 1e-9
    for v in (0.25, 0.5, 0.75):
        assert mandel_qz(lab, DeformationParams(0.0, 1.0, v)) > 0.0
    # 40-digit Fock-sum oracle, alpha=1 beta=1 sweep
    goldens = {
        (0.5, 0.5): -0.33223762714519613,
        (1.0, 0.5): -0.42671285934826879,
        (2.0, 0.5): -0.48023759915027242,
        (0.5, 1.0): -0.1745554677577972,
        (1.0, 1.0): -0.26464723124169622,
        (2.0, 1.0): -0.35072165115891046,
        (0.5, 2.0): -0.071311226533602333,
        (1.0, 2.0): -0.12433805365607169,
        (2.0, 2.0): -0.19710511649467686,
    }
    for (x, v), ref in goldens.items():
        p = DeformationParams(1.0, 1.0, v)
        got = mandel_qz(CoherentLabel.from_intensity(x), p)
        assert got == pytest.approx(ref, rel=1e-8)
        assert got < 0.0  # sub-Poissonian branch


def test_criterion_04_wright_moment_closure():
    """Wright weights reproduce [n]! moments; Bessel cross-check at x=1"""
    rep = verify_moments("wright", 1.0, 1.0, 6)
    for n, target in zip(rep.orders, rep.target_factorials):
        assert target == pytest.approx(float(math.factorial(n) ** 2), rel=1e-10)
    assert max(rep.rel_errors) <= 1e-12
    got = weight_wright(1.0, 1.0, 1.0, rtol=1e-11).u_tilde
    assert got == pytest.approx(2.0 * sp.k0(2.0), rel=1e-7)
    for nu in (0.5, 1.0):
        rep = verify_moments("wright", 0.5, nu, 8)
        p = DeformationParams(1.0, 0.5, nu)
        for n, target in zip(rep.orders, rep.target_factorials):
            assert target == pytest.approx(gen_factorial(n, p).to_float(), rel=1e-10)
        assert max(rep.rel_errors) <= 1e-12


def test_criterion_05_mittag_leffler_closed_form():
    """closed-form weight reproduces Gamma(n+1+nu)/Gamma(1+nu) moments"""
    for nu in (0.0, 0.5, 1.0, 2.0):
        rep = verify_moments("ml-closed-form", 1.0, nu, 10)
        for n, target in zip(rep.orders, rep.target_factorials):
            ref = math.exp(math.lgamma(n + 1.0 + nu) - math.lgamma(1.0 + nu))
            assert target == pytest.approx(ref, rel=1e-10)
        assert max(rep.rel_errors) <= 1e-12


def test_criterion_06_carleman_hankel_suite():
    """Carleman determinacy on the valid grid; Hankel determinants positive"""
    grid = [
        DeformationParams(a, b, v)
        for a in (0.0, 0.5, 1.0)
        for b in (0.25, 0.5, 1.0)
        for v in (a - 0.5, a + 0.1, a + 1.0)
        if v > a - 1.0
    ]
    assert len(grid) >= 27
    for p in grid:
        verdict = carleman_classify(p)
        assert verdict.exponent <= 1.0
        assert verdict.determinate
        assert verdict.series_divergent
    for e in (1.2, 1.5, 3.0):
        assert not classify_exponent(e).determinate
    for p in grid:
        for size in (1, 2, 3, 4, 5):
            for offset in (0, 1):
                assert hankel_hadamard(p, size, offset) > 0.0
    # exact rational cross-check of the classical size-3 determinant
    entries = [[Fraction(math.factorial(i + j)) for j in range(3)] for i in range(3)]
    det = (
        entries[0][0] * (entries[1][1] * entries[2][2] - entries[1][2] * entries[2][1])
        - entries[0][1] * (entries[1][0] * entries[2][2] - entries[1][2] * entries[2][0])
        + entries[0][2] * (entries[1][0] * entries[2][1] - entries[1][1] * entries[2][0])
    )
    ref = det / (Fraction(math.factorial(0)) * math.factorial(2) * math.factorial(4))
    assert hankel_hadamard(CLASSICAL, 3, 0) == pytest.approx(float(ref), rel=1e-10)


def test_criterion_07_two_path_identities():
    """derivative vs Fock-sum moments, continuity defect, ladder relation"""
    triples = [
        CLASSICAL,
        DeformationParams(0.0, 1.0, 1.0),
        DeformationParams(1.0, 1.0, 1.0),
        DeformationParams(0.5, 0.5, 0.25),
        DeformationParams(1.0, 0.5, 1.0),
    ]
    for p in triples:
        for x in (0.5, 1.0, 2.0, 5.0):
            lab = CoherentLabel.from_intensity(x)
            for r in (1, 2):
                a = normally_ordered_moment(r, lab, p)
                b = fock_moment_sum(r, lab, p)
                assert a == pytest.approx(b, rel=1e-8)
    rng = random.Random(314159)
    for k in range(100):
        p = triples[k % len(triples)]
        z1 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        z2 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
        assert continuity_defect(CoherentLabel(z1), CoherentLabel(z2), p) <= 1e-9
    z = complex(0.6, -0.8)
    for p in triples:
        amps = coherent_amplitudes(CoherentLabel(z), p, 41)
        for n in range(40):
            assert abs(ladder_up_coeff(n, p) * amps[n + 1] - z * amps[n]) <= 1e-10


def test_criterion_08_wavefunction_cross_checks():
    """first excited state matches its closed form; classical Hermite limit"""
    triples = [
        DeformationParams(1.0, 1.0, 1.0),
        DeformationParams(1.0, 0.5, 1.0),
        DeformationParams(0.5, 0.75, 0.5),
    ]
    xs = [0.25 * i for i in range(13)]  # [0, 3]
    for p in triples:
        inv_sqrt_f1 = math.exp(-0.5 * log_gen_factorial(1, p))
        for x in xs:
            ref = (
                2.0
                * math.sqrt(0.5)
                * x ** p.beta
                * inv_sqrt_f1
                * ground_wavefunction(x, p)
            )
            assert excited_wavefunction(1, x, p) == pytest.approx(
                ref, rel=1e-9, abs=1e-12
            )
    for x in xs:
        g = math.pi ** -0.25 * math.exp(-x * x / 2.0)
        assert ground_wavefunction(x, CLASSICAL) == pytest.approx(g, rel=1e-10,
                                                                  abs=1e-13)
        assert excited_wavefunction(1, x, CLASSICAL) == pytest.approx(
            math.sqrt(2.0) * x * g, rel=1e-10, abs=1e-13
        )


def test_criterion_09_factorial_asymptotics():
    """log factorial approaches its closed-form asymptote by n = 10^4"""
    triples = [
        CLASSICAL,
        DeformationParams(1.0, 1.0, 1.0),
        DeformationParams(0.5, 0.5, 0.25),
        DeformationParams(1.0, 0.5, 0.5),
        DeformationParams(0.25, 0.75, 0.0),
    ]
    for p in triples:
        r_small = log_gen_factorial(100, p) / log_factorial_asymptotic(100, p)
        r_large = log_gen_factorial(10000, p) / log_factorial_asymptotic(10000, p)
        assert 0.98 <= r_large <= 1.02
        assert abs(r_large - 1.0) < abs(r_small - 1.0)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """every subcommand emits byte-identical CSV/JSON on repeat runs"""
    commands = {
        "factorial": ["factorial", "--n", "0..6"],
        "spectrum": ["spectrum", "--alpha", "0,1", "--nu", "1", "--n", "0..4"],
        "pdist": ["pdist", "--x", "1.5", "--nu", "0.5"],
        "mandel": ["mandel", "--nu", "0.5", "--x", "0.5:2:4"],
        "uncertainty": ["uncertainty", "--nu", "0,0.5,1", "--units", "half-hbar"],
        "wavefunction": ["wavefunction", "--k", "0..2", "--x", "0:2:5"],
        "weight": ["weight", "--family", "ml-closed-form", "--nu", "0.5",
                   "--x", "0.5:4:4"],
        "moments": ["moments", "--family", "ml-closed-form", "--nu", "0",
                    "--nmax", "4"],
        "carleman": ["carleman", "--alpha", "0,0.5,1", "--beta", "0.5,1",
                     "--nu", "1"],
        "hankel": ["hankel", "--size", "4", "--offset", "1"],
    }
    for name, argv in commands.items():
        for fmt in ("csv", "json"):
            out = tmp_path / f"{name}.{fmt}"
            blobs = []
            for _ in (1, 2):
                code = cli_main(argv + ["--format", fmt, "--out", str(out)])
                assert code == 0, f"{name} ({fmt}) exited {code}"
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"{name} ({fmt}) output not reproducible"
            if fmt == "json":
                json.loads(blobs[0])
    # exit-code contract
    assert cli_main(["factorial", "--n", "0..2"]) == 0
    assert cli_main(["factorial", "--beta", "0", "--n", "1"]) == 2
    assert cli_main(["pdist", "--beta", "0.25", "--x", "25"]) == 3
    assert (
        cli_main(
            ["moments", "--family", "ml-closed-form", "--nu", "0", "--nmax", "3",
             "--threshold", "1e-30"]
        )
        == 4
    )
    capsys.readouterr()
