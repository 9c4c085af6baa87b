"""Tests for the package's public surface: the names `wcs` exports, where
each comes from, and what stays out."""

import importlib

import wcs
from wcs import quadrature

# the names the package root exported before it read each module's __all__
EXPORTED = [
    "CarlemanVerdict", "CoherentLabel", "ConvergenceError", "DeformationParams", "LogValue",
    "MomentReport", "NumericalRangeError", "ParameterError", "PhotonDistribution",
    "PhysicalScales", "PowerSeries", "QuadratureStats", "SeriesResult", "SpectrumRow",
    "WEIGHT_FAMILIES", "WeightSample", "__version__", "box", "carleman_classify",
    "carleman_partial_sums", "classify_exponent", "clear_caches", "coherent_amplitudes",
    "commutator_diagonal", "continuity_defect", "deformed_derivative",
    "eigenfunction_residual", "energy_level", "excited_wavefunction", "fock_moment_sum",
    "gamma_signed", "gen_double_factorial", "gen_factorial", "ground_wavefunction",
    "hankel_hadamard", "heisenberg_coeff", "ladder_down_coeff", "ladder_up_coeff", "log_box",
    "log_factorial_asymptotic", "log_gamma", "log_gen_double_factorial", "log_gen_factorial",
    "log_n_derivative", "log_n_function", "mandel_qm", "mandel_qz", "n_function",
    "n_function_derivative", "normally_ordered_moment", "overlap", "photon_distribution",
    "photon_pdf", "quadrature_stats", "spectrum_table", "u_from_u_tilde",
    "vacuum_uncertainty", "verify_moments", "wavefunction_sample", "weight_ml_closed_form",
    "weight_one_minus_beta", "weight_wright", "wright_w",
]

MODULES = ("algebra", "coherent", "errors", "factorials", "gammafn", "moments", "params", "series")


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 63
    assert sorted(wcs.__all__) == EXPORTED


def test_each_name_is_its_home_modules_object():
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"wcs.{name}")
        for attr in module.__all__:
            assert attr not in homes, f"{attr} declared by {homes[attr]} and {name}"
            homes[attr] = name
    assert sorted(homes) == sorted(set(wcs.__all__) - {"__version__"})
    for attr, name in homes.items():
        assert getattr(wcs, attr) is getattr(importlib.import_module(f"wcs.{name}"), attr)


def test_quadrature_stays_out():
    assert not set(quadrature.__all__) & set(wcs.__all__)
    assert not [name for name in quadrature.__all__ if hasattr(wcs, name)]
