"""Stieltjes moment-problem toolkit for the factorial moment sequence.

Resolving the identity over the coherent-state family is equivalent to
finding a positive half-line measure with moments [n]!:

    integral_0^inf x^n Utilde(x) dx = [n]!    (Utilde = pi U / N)

This module classifies determinacy (Carleman, via the asymptotic moment
growth), tests positivity (Hankel-Hadamard determinants), evaluates the
known weight families from their real-integral representations, and
verifies the moment equation by nested quadrature: an adaptive
Gauss-Kronrod outer integral over x whose integrand gets the weight at a
whole batch of abscissae from one double-exponential array call (see
quadrature.integrate_zero_inf_de).  The scalar weight functions are
one-row calls of the same array evaluators.

Weight families
---------------
wright           alpha = 1:        Utilde(x) = 1/(b^2 Gamma(nu)) *
                 integral_0^inf t^(nu/b - 2) exp(-t^(1/b) - x/(b t)) dt
one-minus-beta   alpha = 1 - beta: after substituting w = t^(1/b) - 1,
                 Utilde(x) = Gamma(b) / (b Gamma(b+nu) Gamma(-nu)) *
                 integral_0^inf w^(-nu-1) exp(-x (1+w)^b / b) dw
                 (direct for nu < 0; for nu in (0,1) the w-integral
                 diverges at 0 and is continued by one integration by
                 parts, dropping the boundary term -- the finite part)
ml-closed-form   alpha = 0, beta = 1: Utilde(x) = x^nu e^(-x)/Gamma(1+nu),
                 exact; serves as the ground-truth family.

The alpha = beta family has a Bessel-K weight: with c = 1 - b + nu and
t = x^(1/b), Utilde(x) dx = 2 t^((c-1)/2) K_(1-c)(2 sqrt t) / Gamma(c) dt.
No evaluator exists for it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalRangeError, ParameterError
from .factorials import log_gen_factorial
from .gammafn import gamma_signed, log_gamma
from .params import DeformationParams
from .quadrature import integrate_zero_inf, integrate_zero_inf_de
from .series import log_n_function

__all__ = [
    "CarlemanVerdict",
    "WeightSample",
    "MomentReport",
    "carleman_classify",
    "classify_exponent",
    "carleman_partial_sums",
    "hankel_hadamard",
    "weight_wright",
    "weight_one_minus_beta",
    "weight_ml_closed_form",
    "u_from_u_tilde",
    "verify_moments",
    "WEIGHT_FAMILIES",
]

@dataclass(frozen=True)
class CarlemanVerdict:
    exponent: float
    determinate: bool
    series_divergent: bool


def _finite_real(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _check_exponent(exponent: float) -> None:
    if not _finite_real(exponent):
        raise ParameterError(f"exponent must be a finite real, got {exponent!r}")


def classify_exponent(exponent: float) -> CarlemanVerdict:
    """Verdict for a given growth exponent e: moments grow like
    (n^e)^(2n), so sum m_n^(-1/(2n)) ~ sum n^(-e) diverges iff e <= 1,
    which is the sufficient condition for determinacy."""
    _check_exponent(exponent)
    diverges = exponent <= 1.0
    return CarlemanVerdict(
        exponent=float(exponent), determinate=diverges, series_divergent=diverges
    )


def carleman_classify(p: DeformationParams) -> CarlemanVerdict:
    """Classify the moment problem for [n]! via the growth exponent
    (alpha + beta)/2; always determinate on the admissible domain."""
    return classify_exponent(0.5 * (p.alpha + p.beta))


def carleman_partial_sums(
    exponent: float,
    checkpoints: list[int],
    beta: float = 1.0,
) -> list[float]:
    """Partial sums of m_n^(-1/(2n)) with the asymptotic moments
    m_n = e^(-2 e n) (beta n)^(2 e n), i.e. terms e^e (beta n)^(-e).

    Used to test the divergence dichotomy numerically at the given
    checkpoint lengths."""
    _check_exponent(exponent)
    if not (_finite_real(beta) and beta > 0.0):
        raise ParameterError(f"beta must be a finite positive real, got {beta!r}")
    if not checkpoints or any(not isinstance(c, (int, np.integer)) or c < 1 for c in checkpoints):
        raise ParameterError("checkpoints must be positive integers")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ParameterError("checkpoints must be strictly increasing")
    top = max(checkpoints)
    n = np.arange(1, top + 1, dtype=float)
    terms = math.exp(exponent) * (beta * n) ** (-exponent)
    sums = np.cumsum(terms)
    return [float(sums[c - 1]) for c in checkpoints]


def hankel_hadamard(p: DeformationParams, size: int, offset: int = 0) -> float:
    """Determinant of the rescaled moment matrix M[i][j] = [i+j+offset]!.

    Raw entries overflow quickly, so the matrix is symmetrically rescaled
    as D M D with D_ii = 1/sqrt(m_(2i+offset)); log-convexity of the
    moment sequence keeps the rescaled entries in (0, 1].  The rescaling
    preserves the determinant's sign, and strict positivity of these
    determinants (offsets 0 and 1) is the positivity test for a
    representing measure."""
    if not isinstance(size, int) or size < 1:
        raise ParameterError(f"size must be a positive integer, got {size!r}")
    if offset not in (0, 1):
        raise ParameterError(f"offset must be 0 or 1, got {offset!r}")
    lf = [log_gen_factorial(k + offset, p) for k in range(2 * size - 1)]
    mat = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            mat[i, j] = math.exp(lf[i + j] - 0.5 * lf[2 * i] - 0.5 * lf[2 * j])
    det = float(np.linalg.det(mat))
    if not math.isfinite(det) or det == 0.0:
        raise NumericalRangeError(
            f"rescaled Hankel determinant not representable (size {size}): {det}"
        )
    return det


@dataclass(frozen=True)
class WeightSample:
    x: float
    u_tilde: float
    abs_err_est: float
    endpoint_singular: bool = False
    sign_anomaly: bool = False


def _check_x(x: float) -> float:
    if not (_finite_real(x) and x > 0.0):
        raise ParameterError(f"weight functions are defined for finite x > 0, got {x!r}")
    return float(x)


def _check_wright(beta: float, nu: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not nu > 0.0:
        raise ParameterError(f"the alpha = 1 weight requires nu > 0, got {nu}")


def _one_minus_beta_prefactor(beta: float, nu: float) -> tuple[float, float]:
    """(sign, log |.|) of Gamma(b) / (b Gamma(b+nu) Gamma(-nu)), after
    checking (beta, nu) against the family's supported range."""
    if not 0.0 < beta < 1.0:
        raise ParameterError(
            f"the alpha = 1 - beta family requires beta in (0, 1), got {beta}"
        )
    if nu == math.floor(nu) and nu >= 0.0:
        raise ParameterError(f"nu = {nu} hits a Gamma(-nu) pole")
    if beta + nu <= 0.0:
        raise ParameterError(f"need beta + nu > 0, got {beta + nu}")
    if nu >= 1.0:
        raise ParameterError(
            f"nu = {nu} outside the supported range (-beta, 1) of the "
            "single-integration-by-parts continuation"
        )
    sign_gam, log_gam = gamma_signed(-nu)
    return sign_gam, log_gamma(beta) - math.log(beta) - log_gamma(beta + nu) - log_gam


# Array weight evaluators.  Each factory checks (beta, nu) and returns
# xs -> (u_tilde at every x, points evaluated, relative error estimate per
# x); the integral families hand their log-integrand, as a function of log t
# and a column of x, to the double-exponential kernel in one call per batch.


def _kernel_weights(log_f, sign: float, log_pref: float, rtol: float):
    def evaluate(xs: np.ndarray):
        res = integrate_zero_inf_de(log_f, xs, rtol=rtol)
        return sign * np.exp(log_pref + res.log_value), res.points, res.rel_error

    return evaluate


def _wright_weights(beta: float, nu: float, rtol: float):
    _check_wright(beta, nu)
    power = nu / beta - 2.0

    def log_f(log_t, x):
        return power * log_t - np.exp(log_t / beta) - (x / beta) * np.exp(-log_t)

    log_pref = -log_gamma(nu) - 2.0 * math.log(beta)
    return _kernel_weights(log_f, 1.0, log_pref, rtol)


def _one_minus_beta_weights(beta: float, nu: float, rtol: float):
    """The w-integral of the module docstring with log w as the variable;
    the double-exponential map absorbs the w -> 0 endpoint power."""
    sign, log_pref = _one_minus_beta_prefactor(beta, nu)
    if nu < 0.0:

        def log_f(log_w, x):
            return (-nu - 1.0) * log_w - (x / beta) * np.exp(beta * np.logaddexp(0.0, log_w))

    else:
        # finite part: -(1/nu) integral x w^(-nu) (1+w)^(beta-1) exp(-x (1+w)^beta / beta) dw
        def log_f(log_w, x):
            log_1pw = np.logaddexp(0.0, log_w)
            return (
                np.log(x) - nu * log_w + (beta - 1.0) * log_1pw
                - (x / beta) * np.exp(beta * log_1pw)
            )

        sign, log_pref = -sign, log_pref - math.log(nu)
    return _kernel_weights(log_f, sign, log_pref, rtol)


# the relative target of each weight value, in verify_moments and by default
# in the scalar weight functions
_INNER_RTOL = 1e-11


def _one_row(weights, x: float, beta: float, nu: float, rtol: float) -> tuple[float, float]:
    """(Utilde(x), its absolute error estimate) from a one-row call of the
    family's array evaluator."""
    u, _, rel_error = weights(beta, nu, rtol)(np.array([x]))
    return float(u[0]), abs(float(u[0])) * float(rel_error[0])


def weight_wright(x: float, beta: float, nu: float, rtol: float = _INNER_RTOL) -> WeightSample:
    """Utilde for the alpha = 1 family, to relative error rtol.

    The t -> 0 endpoint power t^(nu/b - 2) is non-integrable on its own
    when nu/b < 1 (flagged), but the essential damping exp(-x/(b t))
    regularizes it for every x > 0."""
    x = _check_x(x)
    u, err = _one_row(_wright_weights, x, beta, nu, rtol)
    return WeightSample(
        x=x, u_tilde=u, abs_err_est=err, endpoint_singular=nu / beta < 1.0
    )


def weight_one_minus_beta(
    x: float, beta: float, nu: float, rtol: float = _INNER_RTOL
) -> WeightSample:
    """Utilde for the alpha = 1 - beta family, to relative error rtol.

    For nu in (0, 1) the w-integral diverges at 0 and the finite part is
    taken by one integration by parts; the 1/Gamma(-nu) prefactor is
    negative there and the two signs cancel, as the n = 0 moment check
    confirms.  Any negatively computed weight value is surfaced through the
    sign-anomaly flag."""
    x = _check_x(x)
    u, err = _one_row(_one_minus_beta_weights, x, beta, nu, rtol)
    return WeightSample(
        x=x, u_tilde=u, abs_err_est=err, endpoint_singular=True, sign_anomaly=u < 0.0
    )


def weight_ml_closed_form(x: float, nu: float) -> WeightSample:
    """Exact weight x^nu e^(-x) / Gamma(1 + nu) of the alpha = 0, beta = 1
    family; the classical coherent-state measure at nu = 0."""
    x = _check_x(x)
    if not nu > -1.0:
        raise ParameterError(f"need nu > -1, got {nu}")
    value = math.exp(nu * math.log(x) - x - log_gamma(1.0 + nu))
    return WeightSample(x=x, u_tilde=value, abs_err_est=0.0)


def u_from_u_tilde(sample: WeightSample, p: DeformationParams) -> float:
    """Recover the completeness density U(x) = Utilde(x) N(x) / pi."""
    if sample.u_tilde == 0.0:
        return 0.0
    log_n = log_n_function(sample.x, p)
    return math.copysign(
        math.exp(math.log(abs(sample.u_tilde)) + log_n - math.log(math.pi)),
        sample.u_tilde,
    )


@dataclass(frozen=True)
class MomentReport:
    orders: tuple[int, ...]
    quadrature_moments: tuple[float, ...]
    target_factorials: tuple[float, ...]
    rel_errors: tuple[float, ...]
    truncation_x: float
    family: str
    panels: int = 0  # outer Gauss-Kronrod panels
    inner_points: int = 0  # points at which the weight kernel was evaluated


def _ml_weights(beta: float, nu: float, rtol: float):
    log_norm = log_gamma(1.0 + nu)
    return lambda xs: (np.exp(nu * np.log(xs) - xs - log_norm), len(xs), np.zeros(len(xs)))


def _ml_params(beta: float, nu: float) -> DeformationParams:
    if beta != 1.0:
        raise ParameterError(f"the closed-form family is defined at beta = 1, got {beta}")
    return DeformationParams(0.0, 1.0, nu)


class _Family(NamedTuple):
    params: Callable  # (beta, nu) -> DeformationParams
    weights: Callable  # (beta, nu, rtol) -> array evaluator
    sample: Callable  # (x, beta, nu, rtol) -> WeightSample, one row of weights


# the registry of weight families, keyed by the names the CLI accepts
WEIGHT_FAMILIES = {
    "wright": _Family(
        lambda beta, nu: DeformationParams(1.0, beta, nu), _wright_weights, weight_wright
    ),
    "one-minus-beta": _Family(
        lambda beta, nu: DeformationParams(1.0 - beta, beta, nu),
        _one_minus_beta_weights,
        weight_one_minus_beta,
    ),
    "ml-closed-form": _Family(
        _ml_params,
        _ml_weights,
        lambda x, beta, nu, rtol=_INNER_RTOL: weight_ml_closed_form(x, nu),
    ),
}


def _family(family: str) -> _Family:
    try:
        return WEIGHT_FAMILIES[family]
    except KeyError:
        raise ParameterError(
            f"unknown weight family {family!r}; expected one of {tuple(WEIGHT_FAMILIES)}"
        ) from None


# verify_moments' relative target of the outer integral, and its panel budget
_OUTER_RTOL = 1e-9
_MAX_PANELS = 6000


def verify_moments(family: str, beta: float, nu: float, n_max: int) -> MomentReport:
    """Quadrature check of integral x^n Utilde(x) dx = [n]! for n <= n_max.

    All moment orders are integrated in a single adaptive pass (the outer
    integrand returns one row per abscissa with n_max + 1 columns), and each
    outer batch of abscissae costs one array call of the weight kernel.  The
    returned truncation_x is the largest outer abscissa at which some
    order's integrand x^n Utilde(x) exceeds 1e-16 of its moment; it is read
    from the abscissae already evaluated and is informational only."""
    if not isinstance(n_max, int) or n_max < 0:
        raise ParameterError(f"n_max must be a non-negative integer, got {n_max!r}")
    fam = _family(family)
    p = fam.params(beta, nu)
    u_tilde = fam.weights(beta, nu, _INNER_RTOL)
    orders = np.arange(n_max + 1, dtype=float)
    inner_points = 0
    batches = []  # (abscissae, integrand rows) of every outer call

    def outer(xs: np.ndarray):
        nonlocal inner_points
        u, points, _ = u_tilde(xs)
        inner_points += points
        rows = u[:, None] * xs[:, None] ** orders
        batches.append((xs, rows))
        return rows

    res = integrate_zero_inf(outer, atol=0.0, rtol=_OUTER_RTOL, max_panels=_MAX_PANELS)
    moments = res.value
    significant = 1e-16 * np.abs(moments)
    trunc = max(
        float(np.max(xs, where=(rows > significant).any(axis=1), initial=0.0))
        for xs, rows in batches
    )

    targets = [math.exp(log_gen_factorial(n, p)) for n in range(n_max + 1)]
    rels = [abs(m - t) / t for m, t in zip(moments, targets)]
    return MomentReport(
        orders=tuple(range(n_max + 1)),
        quadrature_moments=tuple(float(m) for m in moments),
        target_factorials=tuple(targets),
        rel_errors=tuple(rels),
        truncation_x=trunc,
        family=family,
        panels=res.panels,
        inner_points=inner_points,
    )
