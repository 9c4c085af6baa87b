"""Stieltjes moment-problem toolkit for the factorial moment sequence.

Resolving the identity over the coherent-state family is equivalent to
finding a positive half-line measure with moments [n]!:

    integral_0^inf x^n Utilde(x) dx = [n]!    (Utilde = pi U / N)

This module classifies determinacy (Carleman, via the asymptotic moment
growth), tests positivity (Hankel-Hadamard determinants), evaluates the
known weight families from their real-integral representations, and
verifies the moment equation by nested double-exponential quadrature: the
outer integral over x puts every order on one node lattice
(quadrature.integrate_shared_de), and each level of that lattice gets the
weight at all its new abscissae from one array call of the inner kernel
(quadrature.integrate_zero_inf_de), whose per-row scale keeps the weight
computable down to the smallest x the lattice reaches.  The scalar
samplers of all three families are one-row calls of the same array
evaluators, so a sample has the bits of the quadrature's weight at its x.

A family in WEIGHT_FAMILIES declares only its triple as a function of
(beta, nu), its array evaluator of that triple, and its one-row sampler;
the range of (beta, nu) and the small-x power of x Utilde(x) that the
outer rule needs are read off the triple.

Weight families
---------------
wright           alpha = 1:        Utilde(x) = 1/(b^2 Gamma(nu)) *
                 integral_0^inf t^(nu/b - 2) exp(-t^(1/b) - x/(b t)) dt
one-minus-beta   alpha = 1 - beta: with w = t^(1/b) - 1, Utilde(x) =
                 Gamma(b) / (b Gamma(b+nu) Gamma(-nu)) *
                 integral_0^inf w^(-nu-1) exp(-x (1+w)^b / b) dw, which
                 diverges at w = 0 for nu in (0,1).  One integration by
                 parts (its boundary term dropped there: the finite part)
                 and y = x ((1+w)^b - 1) / b turn it, for every nu, into
                 the same prefactor times (-1/nu) e^(-x/b) *
                 integral_0^inf w^(-nu) e^(-y) dy, w = (1 + b y/x)^(1/b) - 1
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
from .factorials import _log_factorials
from .gammafn import _MAX_FINITE_LOG, _exp_each, gamma_signed, log_gamma
from .params import _INNER_RTOL, WEIGHT_FAMILY_NAMES, DeformationParams, check_count, check_real
from .quadrature import _DE_DROP, integrate_shared_de, integrate_zero_inf_de
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
    exponent = check_real(exponent, "exponent")
    diverges = exponent <= 1.0
    return CarlemanVerdict(exponent=exponent, determinate=diverges, series_divergent=diverges)


def carleman_classify(p: DeformationParams) -> CarlemanVerdict:
    """Classify the moment problem for [n]! via the growth exponent
    (alpha + beta)/2; always determinate on the admissible domain."""
    return classify_exponent(0.5 * (p.alpha + p.beta))


# the longest partial sum: three float64 arrays of 128 MB
_CARLEMAN_MAX_TERMS = 2**24


def carleman_partial_sums(
    exponent: float,
    checkpoints: list[int],
    beta: float = 1.0,
) -> list[float]:
    """Partial sums of m_n^(-1/(2n)) with the asymptotic moments
    m_n = e^(-2 e n) (beta n)^(2 e n), i.e. terms e^e (beta n)^(-e).

    Used to test the divergence dichotomy numerically at the given
    checkpoint lengths, up to _CARLEMAN_MAX_TERMS = 2^24."""
    exponent = check_real(exponent, "exponent")
    beta = check_real(beta, "beta", above=0.0)
    try:
        checkpoints = [check_count(c, "checkpoints", 1) for c in checkpoints]
    except TypeError:  # not iterable
        raise ParameterError(
            f"checkpoints must be a list of integers, got {checkpoints!r}"
        ) from None
    if not checkpoints:
        raise ParameterError("checkpoints must not be empty")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ParameterError("checkpoints must be strictly increasing")
    top = checkpoints[-1]
    if top > _CARLEMAN_MAX_TERMS:
        raise NumericalRangeError(f"checkpoints reach {top}: the ceiling is {_CARLEMAN_MAX_TERMS}")
    log_bn = math.log(beta) + np.log(np.arange(1, top + 1, dtype=float))
    # one exponential per term: e^e and (beta n)^(-e) may each leave double
    # range where their product does not
    with np.errstate(over="ignore"):
        sums = np.cumsum(np.exp(exponent * (1.0 - log_bn)))
    out = [float(sums[c - 1]) for c in checkpoints]
    if not math.isfinite(out[-1]):  # the terms are not negative, so nor is any sum
        raise NumericalRangeError(f"Carleman sums at exponent {exponent}, beta {beta}: {out}")
    return out


# the largest Hankel matrix built, 8 MB; the determinant is rounding long
# before it leaves double range, 8.6e-4 off at size 15 at (0, 1, 0)
_HANKEL_MAX_SIZE = 1000
_HANKEL_RTOL = 1e-6  # the relative error allowed in a returned determinant
# the smallest leading block checked before a larger matrix is built; its
# own bound exceeds the tolerance on a grid of 288 (triple, offset) pairs,
# by 41 times at least, at (1, 1, 0.01)
_HANKEL_FIRST_BLOCK = 16


def _rescaled_hankel(p: DeformationParams, size: int, offset: int) -> np.ndarray:
    """D M D, M[i][j] = [i+j+offset]!, D_ii = 1/sqrt(m_(2i+offset))."""
    lf = _log_factorials(p, 2 * size - 2 + offset)[offset:]
    half = 0.5 * lf[::2]  # 0.5 log m_(2i+offset)
    k = np.arange(size)
    return _exp_each((lf[k[:, None] + k] - half[:, None] - half).ravel()).reshape(size, size)


def _rounding_bound(size: int, mat: np.ndarray) -> float:
    """size * eps * cond_2 of the symmetric matrix mat."""
    lam = np.abs(np.linalg.eigvalsh(mat))  # cond_2 = max |lam| / min |lam|
    with np.errstate(divide="ignore"):
        return size * np.finfo(float).eps * float(lam.max() / lam.min())


def hankel_hadamard(p: DeformationParams, size: int, offset: int = 0) -> float:
    """Determinant of the rescaled moment matrix M[i][j] = [i+j+offset]!.

    Raw entries overflow quickly, so the matrix is symmetrically rescaled
    as D M D with D_ii = 1/sqrt(m_(2i+offset)); log-convexity of the
    moment sequence keeps the rescaled entries in (0, 1].  The rescaling
    preserves the determinant's sign, and strict positivity of these
    determinants (offsets 0 and 1) is the positivity test for a
    representing measure.

    A returned value is within 1e-6 relative of the exact determinant:
    where the rounding bound size * eps * cond_2 exceeds that (at (0, 1, 0)
    from size 11), NumericalRangeError names the size and the bound.  A
    size above 16 is refused from its leading block of size 16, 32, ...
    where size * eps * cond_2(block) already exceeds it, before the whole
    matrix is built."""
    size = check_count(size, "size", 1)
    if size > _HANKEL_MAX_SIZE:
        raise ParameterError(f"size must be an integer <= {_HANKEL_MAX_SIZE}, got {size}")
    if check_count(offset, "offset") > 1:
        raise ParameterError(f"offset must be 0 or 1, got {offset!r}")
    # the rescaled matrix is positive semidefinite, so by Cauchy interlacing
    # its cond_2 is at least that of each leading block
    block = _HANKEL_FIRST_BLOCK
    while block < size:
        bound = _rounding_bound(size, _rescaled_hankel(p, block, offset))
        if not bound <= _HANKEL_RTOL:
            raise NumericalRangeError(
                f"rescaled Hankel determinant of size {size}: rounding bound at least"
                f" {bound:.3g} from its leading block of size {block}, against the"
                f" tolerance {_HANKEL_RTOL:g}"
            )
        block *= 2
    mat = _rescaled_hankel(p, size, offset)
    bound = _rounding_bound(size, mat)
    det = float(np.linalg.det(mat))
    if not (bound <= _HANKEL_RTOL and math.isfinite(det) and det != 0.0):
        raise NumericalRangeError(
            f"rescaled Hankel determinant of size {size}: rounding bound {bound:.3g}"
            f" against the tolerance {_HANKEL_RTOL:g}, value {det:.3g}"
        )
    return det


@dataclass(frozen=True)
class WeightSample:
    x: float
    u_tilde: float
    abs_err_est: float
    endpoint_singular: bool = False


def _one_minus_beta_prefactor(beta: float, nu: float) -> float:
    """log |Gamma(b) / (b Gamma(b+nu) Gamma(-nu))|, after checking (beta, nu)
    against the limits of the family's method, beta + nu > 0 among them
    because alpha = 1 - beta rounds.  Gamma(-nu) < 0 for nu in (0, 1),
    where the finite part's factor -1/nu turns the sign back, so the weight
    is positive on the whole range."""
    if not beta < 1.0:
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
    return log_gamma(beta) - math.log(beta) - log_gamma(beta + nu) - gamma_signed(-nu)[1]


# Array weight evaluators.  Each factory, given the triple and rtol, returns
# xs -> (log Utilde at every x, points evaluated, relative error estimate per
# x); the integral families hand their log-integrand, as a function of log t
# and a column of x, to the double-exponential kernel in one call per batch.


def _kernel_weights(log_f, log_pref: float, rtol: float, beta: float, power: float):
    """Both integral families have a sharp edge in their integrand at
    t = x/b (Wright's cut-off e^(-x/(b t)), the bend of one-minus-beta's
    w(y)), and from there it runs like t^power in d(log t) up to a cut-off
    near t = 1.  Each row is scaled so that this edge lies on the linear
    side of the kernel's map, unless the power has already made the
    integrand negligible there.  Where x/b leaves double range at the
    largest x, the call is refused before any node is evaluated."""

    def evaluate(xs: np.ndarray):
        top = float(xs.max())
        if top / beta == math.inf:  # Python's division does not warn
            raise NumericalRangeError(f"x / beta = {top} / {beta} passes the largest double")
        cut = np.log(xs / beta)
        log_scale = np.where(power * cut > -_DE_DROP, np.minimum(cut + 1.0, 0.0), 0.0)
        res = integrate_zero_inf_de(log_f, xs, rtol=rtol, log_scale=log_scale)
        return log_pref + res.log_value, res.points, res.rel_error

    return evaluate


def _wright_weights(p: DeformationParams, rtol: float):
    beta, nu = p.beta, p.nu
    power = nu / beta - 2.0

    def log_f(log_t, x):
        return log_t * power - np.exp(log_t / beta) - x / beta * np.exp(-log_t)

    log_pref = -log_gamma(nu) - 2.0 * math.log(beta)
    return _kernel_weights(log_f, log_pref, rtol, beta, power + 1.0)


def _one_minus_beta_weights(p: DeformationParams, rtol: float):
    """The y-integral of the module docstring with log y as the variable;
    the double-exponential map absorbs the y -> 0 endpoint power."""
    beta, nu = p.beta, p.nu
    log_pref = _one_minus_beta_prefactor(beta, nu) - math.log(abs(nu))

    def log_f(log_y, x):
        # log w for w = (1 + b y/x)^(1/b) - 1 = expm1(l), l = log1p(e^z)/b,
        # z = log(b y/x): l + log(-expm1(-l)) does not overflow at large y,
        # and below z = -700, where l would underflow, log w = z - log b.
        # log1p(e^z) is max(z, 0) + log1p(e^-|z|), as np.logaddexp(0, z)
        # computes it, but in numpy's vectorised exp and log1p.  Below
        # x = b 2^-1024 the ratio b/x overflows, and its log is log b - log x.
        # In place, in z, l and log_y, which ends as y
        ratio = beta / x
        z = log_y + np.where(np.isinf(ratio), math.log(beta) - np.log(x), np.log(ratio))
        l = np.empty_like(z)
        tiny = np.flatnonzero(z < -700.0)
        tiny_log_w = z.flat[tiny] - math.log(beta)
        y = np.exp(log_y, out=log_y)
        np.negative(np.abs(z, out=l), out=l)
        np.log1p(np.exp(l, out=l), out=l)
        l += np.maximum(z, 0.0, out=z)
        l /= beta
        log_w = np.negative(l, out=z)
        np.log(np.negative(np.expm1(log_w, out=log_w), out=log_w), out=log_w)
        log_w += l
        log_w.flat[tiny] = tiny_log_w
        log_w *= -nu
        log_w -= y
        log_w -= x / beta
        return log_w

    return _kernel_weights(log_f, log_pref, rtol, beta, 1.0 - nu / beta)


_WRIGHT, _ONE_MINUS_BETA, _ML_CLOSED_FORM = WEIGHT_FAMILY_NAMES

# 16 eps: the closed-form weight's relative error per unit of its log's scale
_ML_ROUNDING = 16.0 * 2.0**-52


def _one_row(family: str, x: float, beta: float, nu: float, rtol: float) -> tuple[float, float]:
    """(Utilde(x), its absolute error estimate, at least one ulp of it) from
    a one-row call of the family's array evaluator."""
    fam = WEIGHT_FAMILIES[family]
    log_u, _, rel_error = fam.weights(fam.params(beta, nu), rtol)(np.array([x]))
    value = float(np.exp(log_u[0]))
    return value, max(value * float(rel_error[0]), math.ulp(value))


def weight_wright(x: float, beta: float, nu: float, rtol: float = _INNER_RTOL) -> WeightSample:
    """Utilde for the alpha = 1 family, to relative error rtol.

    The t -> 0 endpoint power t^(nu/b - 2) is non-integrable on its own
    when nu/b < 1 (flagged), but the essential damping exp(-x/(b t))
    regularizes it for every x > 0."""
    x = check_real(x, "x", above=0.0)
    u, err = _one_row(_WRIGHT, x, beta, nu, rtol)
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
    confirms; the weight is computed as a logarithm and is positive."""
    x = check_real(x, "x", above=0.0)
    u, err = _one_row(_ONE_MINUS_BETA, x, beta, nu, rtol)
    return WeightSample(x=x, u_tilde=u, abs_err_est=err, endpoint_singular=True)


def weight_ml_closed_form(x: float, nu: float) -> WeightSample:
    """Exact weight x^nu e^(-x) / Gamma(1 + nu) of the alpha = 0, beta = 1
    family; the classical coherent-state measure at nu = 0.  abs_err_est
    bounds the rounding of the formula (_ml_weights)."""
    x = check_real(x, "x", above=0.0)
    u, err = _one_row(_ML_CLOSED_FORM, x, 1.0, nu, _INNER_RTOL)
    return WeightSample(x=x, u_tilde=u, abs_err_est=err)


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
    outer_points: int = 0  # outer abscissae, each evaluated once for all orders
    inner_points: int = 0  # points at which the weight kernel was evaluated


def _ml_weights(p: DeformationParams, rtol: float):
    """The closed form, exact but for rounding: log Utilde is rounded
    within a few ulps of its largest part, and exp turns that absolute
    error into a relative one, bounded by 16 eps (|nu log x| + x +
    |log Gamma(1 + nu)| + 1), the 1 for the error that does not shrink
    with the parts: the rounding of exp itself, an ulp or two of the value
    where every part is small (x and nu near 0).  On 18 610 seeded points,
    nu up to 700 and x from 1e-8 to 700, the error against mpmath stayed
    below 0.39 of that bound."""
    nu = p.nu
    log_norm = log_gamma(1.0 + nu)
    slack = abs(log_norm) + 1.0

    def evaluate(xs: np.ndarray):
        log_x = np.log(xs)
        rel_error = _ML_ROUNDING * (np.abs(nu * log_x) + xs + slack)
        return nu * log_x - xs - log_norm, len(xs), rel_error

    return evaluate


def _ml_params(beta: float, nu: float) -> DeformationParams:
    if check_real(beta, "beta") != 1.0:
        raise ParameterError(f"the closed-form family is defined at beta = 1, got {beta}")
    return DeformationParams(0.0, 1.0, nu)


class _Family(NamedTuple):
    params: Callable  # (beta, nu) -> DeformationParams, checking both
    weights: Callable  # (DeformationParams, rtol) -> array evaluator
    sample: Callable  # (x, beta, nu, rtol) -> WeightSample


# the registry of weight families, keyed in the order of params.WEIGHT_FAMILY_NAMES
WEIGHT_FAMILIES = {
    _WRIGHT: _Family(
        lambda beta, nu: DeformationParams(1.0, beta, nu), _wright_weights, weight_wright
    ),
    _ONE_MINUS_BETA: _Family(
        lambda beta, nu: DeformationParams(1.0 - check_real(beta, "beta"), beta, nu),
        _one_minus_beta_weights,
        weight_one_minus_beta,
    ),
    _ML_CLOSED_FORM: _Family(
        _ml_params,
        _ml_weights,
        lambda x, beta, nu, rtol=_INNER_RTOL: weight_ml_closed_form(x, nu),
    ),
}


def verify_moments(family: str, beta: float, nu: float, n_max: int) -> MomentReport:
    """Quadrature check of integral x^n Utilde(x) dx = [n]! for n <= n_max.

    All orders share one double-exponential lattice on x = exp(s - e^-s)
    (quadrature.integrate_shared_de), held to 1e-9 relative; each of its
    levels gets the weights at its new nodes from one call of the family's
    array evaluator.  Where x Utilde(x) ~ x^p falls so slowly at 0 that more
    than 1e-9 of a moment lies below x ~ 2e-292, the lowest node, it raises
    NumericalRangeError before any quadrature, as it does where [n_max]!
    overflows double precision.  truncation_x is the largest outer abscissa
    at which some order's integrand x^n Utilde(x) exceeds 1e-16 of its
    moment; it is read from the abscissae already evaluated and is
    informational only."""
    n_max = check_count(n_max, "n_max")
    if not (isinstance(family, str) and family in WEIGHT_FAMILIES):
        raise ParameterError(f"family must be one of {tuple(WEIGHT_FAMILIES)}, got {family!r}")
    fam = WEIGHT_FAMILIES[family]
    p = fam.params(beta, nu)
    log_targets = _log_factorials(p, n_max)
    over = log_targets > _MAX_FINITE_LOG
    if over.any():
        raise NumericalRangeError(
            f"[{n_max}]! = exp({log_targets[-1]:.6g}) overflows double precision; the"
            f" largest order whose [n]! fits is {int(np.argmax(over)) - 1}"
        )
    log_u_tilde = fam.weights(p, _INNER_RTOL)
    orders = np.arange(n_max + 1, dtype=float)[:, None]
    inner_points = 0
    levels = []  # (log x, log Utilde) of every outer call

    def log_f(log_x: np.ndarray) -> np.ndarray:
        nonlocal inner_points
        log_u, points, _ = log_u_tilde(np.exp(log_x))
        inner_points += points
        levels.append((log_x, log_u))
        return orders * log_x + log_u

    # x Utilde(x) = O(x^p) as x -> 0, p read off the rightmost pole of the
    # Mellin transform [s-1]! of Utilde: Gamma(beta (s-1) + 1 - alpha + nu)
    # has it at s = 1 - p, and the alpha-ratio product has one at s = 0 only
    # where alpha = 1, so where alpha < 1 a p of 1 is only a lower bound
    res = integrate_shared_de(log_f, low_power=min(1.0, (1.0 - p.alpha + p.nu) / p.beta))
    significant = math.log(1e-16) + res.log_value[:, None]
    trunc = 0.0
    for log_x, log_u in levels:
        above = (orders * log_x + log_u > significant).any(axis=0)
        trunc = max(trunc, float(np.max(np.exp(log_x), where=above, initial=0.0)))

    moments = np.exp(res.log_value)
    targets = _exp_each(log_targets).tolist()
    rels = [abs(m - t) / t for m, t in zip(moments, targets)]
    return MomentReport(
        orders=tuple(range(n_max + 1)),
        quadrature_moments=tuple(float(m) for m in moments),
        target_factorials=tuple(targets),
        rel_errors=tuple(rels),
        truncation_x=trunc,
        family=family,
        outer_points=res.points,
        inner_points=inner_points,
    )
