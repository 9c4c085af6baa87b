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
quadrature.integrate_zero_inf_de).  The scalar weight functions keep their
own adaptive route and serve as the independent cross-check.

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

The alpha = beta family has only a Fox-H closed form with no elementary
integral representation, so it is documented here as out of scope and has
no evaluator.
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
from .quadrature import integrate_zero_inf, integrate_zero_inf_de, integrate_zero_inf_exp
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


def classify_exponent(exponent: float) -> CarlemanVerdict:
    """Verdict for a given growth exponent e: moments grow like
    (n^e)^(2n), so sum m_n^(-1/(2n)) ~ sum n^(-e) diverges iff e <= 1,
    which is the sufficient condition for determinacy."""
    if not (isinstance(exponent, (int, float)) and exponent == exponent):
        raise ParameterError(f"exponent must be a finite real, got {exponent!r}")
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
    if not checkpoints or any(c < 1 for c in checkpoints):
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
    if not (isinstance(x, (int, float)) and x == x and x > 0.0):
        raise ParameterError(f"weight functions are defined for x > 0, got {x!r}")
    return float(x)


def _check_wright(beta: float, nu: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not nu > 0.0:
        raise ParameterError(f"the alpha = 1 weight requires nu > 0, got {nu}")


def weight_wright(
    x: float,
    beta: float,
    nu: float,
    tol: float = 1e-10,
    rtol: float = 1e-8,
    scheme: str = "rational",
    max_panels: int = 4000,
) -> WeightSample:
    """Utilde for the alpha = 1 family by semi-infinite quadrature.

    The t -> 0 endpoint power t^(nu/b - 2) is non-integrable on its own
    when nu/b < 1 (flagged), but the essential damping exp(-x/(b t))
    regularizes it for every x > 0; both substitution schemes place nodes
    strictly inside the domain."""
    x = _check_x(x)
    _check_wright(beta, nu)
    if scheme not in ("rational", "exp"):
        raise ParameterError(f"unknown quadrature scheme {scheme!r}")
    power = nu / beta - 2.0
    inv_beta = 1.0 / beta

    def integrand(t: np.ndarray):
        with np.errstate(over="ignore", divide="ignore"):
            expo = power * np.log(t) - t**inv_beta - x / (beta * t)
        return np.exp(np.minimum(expo, 700.0))

    integrate = integrate_zero_inf if scheme == "rational" else integrate_zero_inf_exp
    pref = math.exp(-log_gamma(nu)) / (beta * beta)
    res = integrate(integrand, atol=tol / max(pref, 1.0), rtol=rtol, max_panels=max_panels)
    return WeightSample(
        x=x,
        u_tilde=pref * res.scalar,
        abs_err_est=pref * res.scalar_error,
        endpoint_singular=nu / beta < 1.0,
    )


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


def weight_one_minus_beta(
    x: float,
    beta: float,
    nu: float,
    tol: float = 1e-10,
    rtol: float = 1e-8,
    max_panels: int = 4000,
) -> WeightSample:
    """Utilde for the alpha = 1 - beta family on t in (1, inf).

    Implemented after the substitution w = t^(1/beta) - 1 (flattening the
    t = 1 endpoint), followed by a power-law substitution w = y^m chosen
    from the known endpoint exponent.  For nu in (0, 1) the w-integral
    diverges at 0 and the finite part is taken by one integration by
    parts; the 1/Gamma(-nu) prefactor is negative there and the two signs
    cancel, as the n = 0 moment check confirms.  Any negatively computed
    weight value is surfaced through the sign-anomaly flag."""
    x = _check_x(x)
    sign_gam, log_pref = _one_minus_beta_prefactor(beta, nu)
    pref = sign_gam * math.exp(log_pref)

    if nu < 0.0:
        # integrand w^(-nu-1) g(w); endpoint exponent -nu-1 in (-1, 0)
        m = min(32, max(1, math.ceil(2.0 / (-nu))))
        y_pow = m * (-nu) - 1.0

        def integrand(y: np.ndarray):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                w = y**m
                expo = -x * (1.0 + w) ** beta / beta
                out = m * y**y_pow * np.exp(expo)
            return np.where(np.isfinite(out), out, 0.0)

        scale = pref
    else:
        # finite part: (1/nu) integral w^(-nu) g'(w) dw,
        # g'(w) = -x (1+w)^(beta-1) exp(-x (1+w)^beta / beta)
        m = min(32, max(1, math.ceil(2.0 / (1.0 - nu))))
        y_pow = m * (1.0 - nu) - 1.0

        def integrand(y: np.ndarray):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                w = y**m
                base = 1.0 + w
                expo = -x * base**beta / beta
                out = -x * m * y**y_pow * base ** (beta - 1.0) * np.exp(expo)
            return np.where(np.isfinite(out), out, 0.0)

        scale = pref / nu

    res = integrate_zero_inf(
        integrand, atol=tol / max(abs(scale), 1.0), rtol=rtol, max_panels=max_panels
    )
    value = scale * res.scalar
    return WeightSample(
        x=x,
        u_tilde=value,
        abs_err_est=abs(scale) * res.scalar_error,
        endpoint_singular=True,
        sign_anomaly=value < 0.0,
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


# Array weight evaluators for verify_moments.  Each factory checks (beta, nu)
# and returns xs -> (u_tilde at every x, points evaluated); the integral
# families hand their log-integrand, as a function of log t and a column of
# x, to the double-exponential kernel in one call per batch.


def _kernel_weights(log_f, sign: float, log_pref: float, rtol: float, atol: float):
    # atol bounds u_tilde; the kernel integrates before the prefactor.  An
    # atol beyond e^700 of the integral already accepts every row.
    atol_inner = math.exp(min(math.log(atol) - log_pref, 700.0)) if atol > 0.0 else 0.0

    def evaluate(xs: np.ndarray):
        res = integrate_zero_inf_de(log_f, xs, rtol=rtol, atol=atol_inner)
        return sign * np.exp(log_pref + res.log_value), res.points

    return evaluate


def _wright_weights(beta: float, nu: float, rtol: float, atol: float):
    _check_wright(beta, nu)
    power = nu / beta - 2.0

    def log_f(log_t, x):
        return power * log_t - np.exp(log_t / beta) - (x / beta) * np.exp(-log_t)

    log_pref = -log_gamma(nu) - 2.0 * math.log(beta)
    return _kernel_weights(log_f, 1.0, log_pref, rtol, atol)


def _one_minus_beta_weights(beta: float, nu: float, rtol: float, atol: float):
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
    return _kernel_weights(log_f, sign, log_pref, rtol, atol)


def _ml_weights(beta: float, nu: float, rtol: float, atol: float):
    log_norm = log_gamma(1.0 + nu)
    return lambda xs: (np.exp(nu * np.log(xs) - xs - log_norm), len(xs))


def _ml_params(beta: float, nu: float) -> DeformationParams:
    if beta != 1.0:
        raise ParameterError(f"the closed-form family is defined at beta = 1, got {beta}")
    return DeformationParams(0.0, 1.0, nu)


class _Family(NamedTuple):
    params: Callable  # (beta, nu) -> DeformationParams
    weights: Callable  # (beta, nu, rtol, atol) -> array evaluator
    sample: Callable  # (x, beta, nu, tol) -> WeightSample, the scalar route


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
        _ml_params, _ml_weights, lambda x, beta, nu, tol: weight_ml_closed_form(x, nu)
    ),
}


def _family(family: str) -> _Family:
    try:
        return WEIGHT_FAMILIES[family]
    except KeyError:
        raise ParameterError(
            f"unknown weight family {family!r}; expected one of {tuple(WEIGHT_FAMILIES)}"
        ) from None


def verify_moments(
    family: str,
    beta: float,
    nu: float,
    n_max: int,
    rtol_outer: float = 1e-9,
    inner_tol: float = 0.0,
    inner_rtol: float = 1e-11,
    max_panels: int = 6000,
) -> MomentReport:
    """Quadrature check of integral x^n Utilde(x) dx = [n]! for n <= n_max.

    All moment orders are integrated in a single adaptive pass (the outer
    integrand returns one row per abscissa with n_max + 1 columns), and each
    outer batch of abscissae costs one array call of the weight kernel.  The
    returned truncation_x is the first point of the doubling grid 1, 2, 4,
    ..., 2^59 (evaluated in one kernel call) beyond which every order's
    integrand falls below 1e-16 of its integral, or 2^60 if none; the outer
    map extends past it, so the recorded bound is informational."""
    if not isinstance(n_max, int) or n_max < 0:
        raise ParameterError(f"n_max must be a non-negative integer, got {n_max!r}")
    fam = _family(family)
    p = fam.params(beta, nu)
    u_tilde = fam.weights(beta, nu, inner_rtol, inner_tol)
    orders = np.arange(n_max + 1, dtype=float)
    inner_points = 0

    def outer(xs: np.ndarray):
        nonlocal inner_points
        u, points = u_tilde(xs)
        inner_points += points
        return u[:, None] * xs[:, None] ** orders

    res = integrate_zero_inf(outer, atol=0.0, rtol=rtol_outer, max_panels=max_panels)
    moments = res.value

    grid = 2.0 ** np.arange(60)
    u, points = u_tilde(grid)
    inner_points += points
    small = np.all(u[:, None] * grid[:, None] ** orders <= 1e-16 * np.abs(moments), axis=1)
    trunc = float(grid[np.argmax(small)]) if small.any() else 2.0**60

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
