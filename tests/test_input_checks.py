"""One input check per argument kind.

Every public entry point refuses a bool, NaN, +-inf or a wrong type for
each of its scalar arguments with a ParameterError whose message starts
with the argument's name, before any series or quadrature work starts.
Any float at all, NaN, infinities and subnormals included, gives the
series, wavefunction and signed-gamma functions either a finite value or
a typed wcs error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcs.coherent
import wcs.params as params
import wcs.quadrature
import wcs.series
from wcs import (
    CoherentLabel,
    DeformationParams,
    LogValue,
    PhysicalScales,
    PowerSeries,
    box,
    carleman_partial_sums,
    classify_exponent,
    coherent_amplitudes,
    commutator_diagonal,
    continuity_defect,
    eigenfunction_residual,
    energy_level,
    excited_wavefunction,
    fock_moment_sum,
    gamma_signed,
    gen_double_factorial,
    gen_factorial,
    ground_wavefunction,
    hankel_hadamard,
    heisenberg_coeff,
    ladder_down_coeff,
    ladder_up_coeff,
    log_box,
    log_factorial_asymptotic,
    log_gamma,
    log_gen_double_factorial,
    log_gen_factorial,
    log_n_derivative,
    log_n_function,
    mandel_qm,
    mandel_qz,
    n_function,
    n_function_derivative,
    normally_ordered_moment,
    overlap,
    photon_distribution,
    photon_pdf,
    quadrature_stats,
    spectrum_table,
    verify_moments,
    wavefunction_sample,
    weight_ml_closed_form,
    weight_one_minus_beta,
    weight_wright,
    wright_w,
)
from wcs.errors import ConvergenceError, NumericalRangeError, ParameterError
from wcs.quadrature import integrate_shared_de, integrate_zero_inf_de

P = DeformationParams(0.0, 1.0, 0.5)
LABEL = CoherentLabel(1.0 + 0.5j)
ZERO = CoherentLabel(0.0)
TINY = CoherentLabel.from_intensity(1e-13)  # below the Mandel small-x guard


def _log_exp(log_t, x):
    return -np.exp(log_t) - x * np.exp(-log_t)


def _log_exp_rows(log_t):
    return -np.exp(log_t)[None, :]


# (entry point, argument name, call with the argument set to v)
ENTRIES = [
    ("DeformationParams", "alpha", lambda v: DeformationParams(v, 1.0, 0.0)),
    ("DeformationParams", "beta", lambda v: DeformationParams(0.0, v, 0.0)),
    ("DeformationParams", "nu", lambda v: DeformationParams(0.0, 1.0, v)),
    ("PhysicalScales", "hbar", lambda v: PhysicalScales(hbar=v)),
    ("PhysicalScales", "mass", lambda v: PhysicalScales(mass=v)),
    ("PhysicalScales", "omega", lambda v: PhysicalScales(omega=v)),
    ("gamma_signed", "x", gamma_signed),
    ("LogValue.from_float", "value", LogValue.from_float),
    ("LogValue.from_log", "log_abs", LogValue.from_log),
    ("LogValue.from_log", "sign", lambda v: LogValue.from_log(1.0, sign=v)),
    ("log_box", "n", lambda v: log_box(v, P)),
    ("box", "n", lambda v: box(v, P)),
    ("log_gen_factorial", "n", lambda v: log_gen_factorial(v, P)),
    ("gen_factorial", "n", lambda v: gen_factorial(v, P)),
    ("log_gen_double_factorial", "m", lambda v: log_gen_double_factorial(v, P)),
    ("gen_double_factorial", "m", lambda v: gen_double_factorial(v, P)),
    ("log_factorial_asymptotic", "n", lambda v: log_factorial_asymptotic(v, P)),
    ("ladder_down_coeff", "n", lambda v: ladder_down_coeff(v, P)),
    ("ladder_up_coeff", "n", lambda v: ladder_up_coeff(v, P)),
    ("commutator_diagonal", "n", lambda v: commutator_diagonal(v, P)),
    ("energy_level", "n", lambda v: energy_level(v, P)),
    ("heisenberg_coeff", "n", lambda v: heisenberg_coeff(v, P)),
    ("spectrum_table", "n_max", lambda v: spectrum_table(v, P)),
    ("n_function", "x", lambda v: n_function(v, P)),
    ("n_function", "tol", lambda v: n_function(1.0, P, tol=v)),
    ("n_function", "max_terms", lambda v: n_function(1.0, P, max_terms=v)),
    ("n_function_derivative", "x", lambda v: n_function_derivative(v, 1, P)),
    ("n_function_derivative", "r", lambda v: n_function_derivative(1.0, v, P)),
    ("wright_w", "x", lambda v: wright_w(v, P)),
    ("log_n_function", "x", lambda v: log_n_function(v, P)),
    ("log_n_function", "tol", lambda v: log_n_function(1.0, P, tol=v)),
    ("log_n_derivative", "x", lambda v: log_n_derivative(v, 1, P)),
    ("log_n_derivative", "r", lambda v: log_n_derivative(1.0, v, P)),
    ("PowerSeries", "x", lambda v: PowerSeries((1.0, 2.0), 1.0)(v)),
    ("PowerSeries", "beta", lambda v: PowerSeries((1.0, 2.0), v)),
    ("eigenfunction_residual", "lam", lambda v: eigenfunction_residual(v, 1.0, P)),
    ("eigenfunction_residual", "x", lambda v: eigenfunction_residual(1.0, v, P)),
    ("CoherentLabel", "z", CoherentLabel),
    ("CoherentLabel.from_intensity", "x", CoherentLabel.from_intensity),
    ("photon_pdf", "n", lambda v: photon_pdf(v, LABEL, P)),
    ("photon_distribution", "tail_tol", lambda v: photon_distribution(LABEL, P, tail_tol=v)),
    ("photon_distribution", "max_n", lambda v: photon_distribution(LABEL, P, max_n=v)),
    ("photon_distribution", "tol", lambda v: photon_distribution(LABEL, P, tol=v)),
    ("overlap", "tol", lambda v: overlap(LABEL, LABEL, P, tol=v)),
    ("coherent_amplitudes", "n_max", lambda v: coherent_amplitudes(LABEL, P, v)),
    ("continuity_defect", "max_terms", lambda v: continuity_defect(LABEL, LABEL, P, max_terms=v)),
    ("normally_ordered_moment", "r", lambda v: normally_ordered_moment(v, LABEL, P)),
    ("fock_moment_sum", "r", lambda v: fock_moment_sum(v, LABEL, P)),
    ("mandel_qz", "tol", lambda v: mandel_qz(LABEL, P, tol=v)),
    ("mandel_qm", "max_terms", lambda v: mandel_qm(LABEL, P, max_terms=v)),
    ("quadrature_stats", "n", lambda v: quadrature_stats(v, P)),
    ("wavefunction_sample", "k", lambda v: wavefunction_sample(v, 1.0, P)),
    ("wavefunction_sample", "x", lambda v: wavefunction_sample(0, v, P)),
    ("ground_wavefunction", "x", lambda v: ground_wavefunction(v, P)),
    ("excited_wavefunction", "k", lambda v: excited_wavefunction(v, 1.0, P)),
    ("classify_exponent", "exponent", classify_exponent),
    ("carleman_partial_sums", "exponent", lambda v: carleman_partial_sums(v, [10])),
    ("carleman_partial_sums", "checkpoints", lambda v: carleman_partial_sums(1.0, [v, 20])),
    ("carleman_partial_sums", "beta", lambda v: carleman_partial_sums(1.0, [10], beta=v)),
    ("hankel_hadamard", "size", lambda v: hankel_hadamard(P, v)),
    ("hankel_hadamard", "offset", lambda v: hankel_hadamard(P, 2, offset=v)),
    ("weight_wright", "x", lambda v: weight_wright(v, 1.0, 1.0)),
    ("weight_wright", "beta", lambda v: weight_wright(1.0, v, 1.0)),
    ("weight_wright", "nu", lambda v: weight_wright(1.0, 1.0, v)),
    ("weight_wright", "rtol", lambda v: weight_wright(1.0, 1.0, 1.0, rtol=v)),
    ("weight_one_minus_beta", "x", lambda v: weight_one_minus_beta(v, 0.5, -0.25)),
    ("weight_one_minus_beta", "beta", lambda v: weight_one_minus_beta(1.0, v, -0.25)),
    ("weight_one_minus_beta", "nu", lambda v: weight_one_minus_beta(1.0, 0.5, v)),
    ("weight_ml_closed_form", "x", lambda v: weight_ml_closed_form(v, 0.5)),
    ("weight_ml_closed_form", "nu", lambda v: weight_ml_closed_form(1.0, v)),
    ("verify_moments", "beta", lambda v: verify_moments("ml-closed-form", v, 0.5, 4)),
    ("verify_moments", "nu", lambda v: verify_moments("wright", 0.5, v, 4)),
    ("verify_moments", "n_max", lambda v: verify_moments("ml-closed-form", 1.0, 0.5, v)),
    ("integrate_zero_inf_de", "rtol", lambda v: integrate_zero_inf_de(_log_exp, [1.0], rtol=v)),
    ("integrate_shared_de", "low_power", lambda v: integrate_shared_de(_log_exp_rows, v)),
    ("verify_moments", "family", lambda v: verify_moments(v, 1.0, 0.5, 4)),
    ("carleman_partial_sums(checkpoints=v)", "checkpoints",
     lambda v: carleman_partial_sums(1.0, v)),
    # short cuts at x = 0 and below the Mandel guard check tol and max_terms too
    ("log_n_function(x=0)", "tol", lambda v: log_n_function(0.0, P, tol=v)),
    ("log_n_derivative(x=0)", "tol", lambda v: log_n_derivative(0.0, 1, P, tol=v)),
    ("photon_pdf(x=0)", "tol", lambda v: photon_pdf(0, ZERO, P, tol=v)),
    ("photon_distribution(x=0)", "tol", lambda v: photon_distribution(ZERO, P, tol=v)),
    ("normally_ordered_moment(x=0)", "tol", lambda v: normally_ordered_moment(1, ZERO, P, tol=v)),
    ("fock_moment_sum(x=0)", "tol", lambda v: fock_moment_sum(1, ZERO, P, tol=v)),
    ("fock_moment_sum(x=0)", "max_terms", lambda v: fock_moment_sum(1, ZERO, P, max_terms=v)),
    ("coherent_amplitudes(x=0)", "tol", lambda v: coherent_amplitudes(ZERO, P, 2, tol=v)),
    ("mandel_qz(x<guard)", "tol", lambda v: mandel_qz(TINY, P, tol=v)),
    ("mandel_qm(x<guard)", "tol", lambda v: mandel_qm(TINY, P, tol=v)),
    ("mandel_qm(x<guard)", "max_terms", lambda v: mandel_qm(TINY, P, max_terms=v)),
]

BAD = [True, math.nan, math.inf, -math.inf, "1"]


def _no_work(*args, **kwargs):
    raise AssertionError("series or quadrature work started before the argument check")


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a series reads its bracket table or a quadrature
    starts a double-exponential scan."""
    monkeypatch.setattr(wcs.series, "_table", _no_work)
    monkeypatch.setattr(wcs.coherent, "_table", _no_work)
    monkeypatch.setattr(wcs.quadrature, "_de_scan", _no_work)


@pytest.mark.parametrize("value", BAD, ids=["true", "nan", "inf", "-inf", "str"])
@pytest.mark.parametrize(
    "call, name", [(call, name) for _, name, call in ENTRIES],
    ids=[f"{entry}-{name}" for entry, name, _ in ENTRIES],
)
def test_bad_value_raises_parameter_error_up_front(no_work, call, name, value):
    with pytest.raises(ParameterError, match=f"^{name} must"):
        call(value)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda v: ladder_up_coeff(v, P), -1),
        (lambda v: ladder_up_coeff(v, P), 1.5),
        (lambda v: commutator_diagonal(v, P), 1.5),
        (lambda v: energy_level(v, P), -1),
        (lambda v: quadrature_stats(v, P), 1.5),
        (lambda v: quadrature_stats(v, P), -1),
    ],
)
def test_ladder_helpers_name_the_callers_n(call, value):
    # these pass n + 1 on to box; the message names n as the caller gave it
    with pytest.raises(ParameterError, match=rf"^n must .*got {value}$"):
        call(value)


def test_numpy_integers_are_counts():
    assert log_box(np.int64(7), P) == log_box(7, P)
    assert hankel_hadamard(P, np.int32(3), offset=np.int8(1)) == hankel_hadamard(P, 3, offset=1)
    assert wavefunction_sample(np.int64(2), 1.0, P) == wavefunction_sample(2, 1.0, P)
    with pytest.raises(ParameterError, match="^n must"):
        log_box(np.float64(7.0), P)


def test_integer_beyond_double_range_is_not_finite():
    with pytest.raises(ParameterError, match="^x must be a finite"):
        log_n_function(10**400, P)


class _Real(float):
    pass


def _checked_path(value, name, above=None, at_least=None):
    # check_real without its fast path for a finite float
    params._check_finite(value, name, params._REALS, "real")
    value = float(value)
    if above is not None and not value > above:
        raise ParameterError(f"{name} must be > {above}, got {value}")
    if at_least is not None and not value >= at_least:
        raise ParameterError(f"{name} must be >= {at_least}, got {value}")
    return value


@pytest.mark.parametrize(
    "value",
    [1.5, 0.0, -0.0, -2.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf, True, False,
     np.float64(1.5), np.float64(math.nan), _Real(1.5), _Real(math.inf), 3, 10**400, "1.5"],
    ids=repr,
)
@pytest.mark.parametrize("bounds", [{}, {"above": 0.0}, {"at_least": 0.0}])
def test_check_real_fast_path_keeps_results_and_messages(value, bounds):
    def outcome(check):
        try:
            got = check(value, "x", **bounds)
        except ParameterError as e:
            return "error", str(e)
        return type(got), got.hex()

    assert outcome(params.check_real) == outcome(_checked_path)


def test_wright_w_overflow_is_typed():
    # N(713.15) fits a double at (0, 1, 1/2), but 1/Gamma(3/2) > 1 lifts it past
    with pytest.raises(NumericalRangeError, match="wright_w"):
        wright_w(713.15, P)


def test_derivative_sum_overflow_is_typed():
    # every term is finite, but their sum is past the range
    with pytest.raises(NumericalRangeError, match="n_function_derivative"):
        n_function_derivative(755.0, 1, DeformationParams(1.0, 0.3, 0.2))


@pytest.mark.parametrize("moment", [normally_ordered_moment, fock_moment_sum])
def test_moment_overflow_is_typed(moment):
    # the classical moment of order 200 at x = 100 is 100^200, past the range
    label = CoherentLabel.from_intensity(100.0)
    name = moment.__name__
    with pytest.raises(NumericalRangeError, match=f"^{name}: .*r = 200 at x = 100.0 "):
        moment(200, label, DeformationParams(0.0, 1.0, 0.0))


@pytest.mark.parametrize("moment", [normally_ordered_moment, fock_moment_sum])
def test_moment_whose_terms_fit_but_sum_overflows_is_typed(moment):
    # at r = 155, x = 97.66 every Fock term fits a double and their sum does
    # not, so math.fsum raises its own OverflowError, which must not escape
    label = CoherentLabel.from_intensity(97.66)
    with pytest.raises(NumericalRangeError) as err:
        moment(155, label, DeformationParams(0.0, 1.0, 0.0))
    assert str(err.value) == (
        f"{moment.__name__}: the moment of order r = 155 at x = {label.x} is beyond double range"
    )


@pytest.mark.parametrize("value", [True, math.nan, -math.inf, "1", 0.0])
def test_log_gamma_checks_its_argument(value):
    with pytest.raises(ParameterError, match="^x must"):
        log_gamma(value)


def test_log_gamma_of_inf_is_still_inf():
    assert log_gamma(math.inf) == math.inf


def test_log_gamma_overflow_is_typed():
    # log Gamma(1e306) is about 7e308, past the largest double
    with pytest.raises(NumericalRangeError, match="overflows"):
        log_gamma(1e306)


def test_unhashable_family_is_a_parameter_error():
    with pytest.raises(ParameterError, match="^family must"):
        verify_moments(["wright"], 0.5, 1.0, 4)


def test_zero_max_terms_below_the_mandel_guard():
    with pytest.raises(ParameterError, match="^max_terms must"):
        mandel_qm(TINY, P, max_terms=0)


@pytest.mark.parametrize("z", [1e200 + 0j, complex(1e308, 1e308), -3e154j])
def test_oversized_label_is_typed(z):
    with pytest.raises(NumericalRangeError, match=r"z = .*\|z\|\^2 overflows"):
        CoherentLabel(z)


def test_largest_label_is_kept():
    assert CoherentLabel(1e154 + 0j).x == 1e308


def test_gamma_signed_overflow_is_typed():
    # log Gamma(1e306) is about 7e308, past the largest double
    with pytest.raises(NumericalRangeError, match="overflows"):
        gamma_signed(1e306)


_TRIPLES = [DeformationParams(0.0, 1.0, 0.0), P, DeformationParams(0.5, 0.5, 0.25)]
_FLOAT_FUNCTIONS = {
    "n_function": lambda x, p: n_function(x, p).value,
    "n_function_derivative": lambda x, p: n_function_derivative(x, 1, p).value,
    "wright_w": lambda x, p: wright_w(x, p).value,
    "log_n_function": log_n_function,
    "log_n_derivative": lambda x, p: log_n_derivative(x, 1, p),
    "wavefunction_sample": lambda x, p: wavefunction_sample(1, x, p)[0],
    "gamma_signed": lambda x, p: gamma_signed(x)[1],
    "CoherentLabel": lambda x, p: CoherentLabel(complex(x, x)).x,
}


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    name=st.sampled_from(sorted(_FLOAT_FUNCTIONS)),
    p=st.sampled_from(_TRIPLES),
)
def test_any_float_gives_a_finite_value_or_a_typed_error(x, name, p):
    try:
        value = _FLOAT_FUNCTIONS[name](x, p)
    except (ParameterError, ConvergenceError, NumericalRangeError):
        return
    assert math.isfinite(abs(value)), (name, x, p, value)


_EDGE_TRIPLES = [*_TRIPLES, DeformationParams(1.0, 0.3, 0.2)]


def _edge_outcome(f, *args):
    """'finite' or the wcs error type f(*args) raises; anything else is a bug."""
    try:
        value = f(*args)
    except (ConvergenceError, NumericalRangeError) as e:
        return type(e).__name__
    assert math.isfinite(abs(getattr(value, "value", value))), (f, args, value)
    return "finite"


def test_double_range_edge_gives_a_finite_value_or_a_typed_error():
    # both moment functions at r = 140..170 and x = 60..118.5, where the
    # moments leave double range (math.fsum raises OverflowError in 43
    # fock_moment_sum calls here), and the linear-scale series at
    # x = +-690..768 and 500..595 + 500i, about where e^|x| does
    outcomes = set()
    for p in _EDGE_TRIPLES:
        for x in np.arange(60.0, 119.0, 1.5).tolist():
            label = CoherentLabel.from_intensity(x)
            for r in range(140, 171, 2):
                for moment in (normally_ordered_moment, fock_moment_sum):
                    outcomes.add(_edge_outcome(moment, r, label, p))
        xs = [float(sign * j) for sign in (1, -1) for j in range(690, 769)]
        for x in xs + [complex(j, 500) for j in range(500, 596)]:
            outcomes.add(_edge_outcome(n_function, x, p))
            outcomes.add(_edge_outcome(wright_w, x, p))
            outcomes.add(_edge_outcome(n_function_derivative, x, 1, p))
    assert outcomes == {"finite", "NumericalRangeError"}
