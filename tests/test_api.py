"""Tests for the package's public surface: the names `wcs` exports, where
each comes from, and what stays out."""

import importlib
import json
import os
import subprocess
import sys

import pytest

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


def run_child(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this wcs."""
    src = os.path.dirname(os.path.dirname(wcs.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_holds_every_exported_name():
    assert set(EXPORTED) <= set(dir(wcs))


def test_dir_holds_no_module_private_import():
    # beside the exported names: dunders, the root's private helpers, and
    # the package's own submodules, bound as they load
    strangers = [
        name for name in dir(wcs)
        if name not in wcs.__all__ and not name.startswith("_")
        and getattr(getattr(wcs, name), "__name__", None) != f"wcs.{name}"
    ]
    assert strangers == []


def test_star_import_binds_each_home_modules_object():
    code = f"""
import importlib, json
ns = {{}}
exec("from wcs import *", ns)
del ns["__builtins__"]
homes = {{}}
for name in {MODULES!r}:
    module = importlib.import_module("wcs." + name)
    homes.update((attr, getattr(module, attr)) for attr in module.__all__)
print(json.dumps([sorted(ns), sorted(a for a in homes if ns.get(a) is not homes[a])]))
"""
    names, strangers = json.loads(run_child(code))
    assert names == EXPORTED
    assert strangers == []


def test_an_unknown_name_is_an_attribute_error_naming_it():
    message = "module 'wcs' has no attribute 'no_such_name'"
    # the first read, through the lazy hook, and one after it
    code = "import wcs\ntry:\n    wcs.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    assert run_child(code) == message + "\n"
    with pytest.raises(AttributeError, match=message):
        wcs.no_such_name  # noqa: B018


def test_the_hooks_are_dropped_once_loaded():
    # a module without __getattr__ keeps CPython's fast path for wcs.name reads
    assert wcs.box is not None
    assert "__getattr__" not in vars(wcs)
    assert "__dir__" not in vars(wcs)


def test_import_and_dunder_probes_load_nothing():
    code = (
        "import sys, wcs\n"
        "assert not hasattr(wcs, '__wrapped__')\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcs')), wcs.__version__)"
    )
    assert run_child(code) == "['wcs'] 0.1.0\n"
