"""Known wrong values that the library returns without an error.

Each case asserts the contract of ROADMAP aim 3: a returned value is within
its tolerance of the true value, or a typed wcs error is raised.  A value
that comes back with a cancellation flag but is wrong breaks it too.  Each
reference is computed here, with mpmath or a closed form, from the same
double inputs.  The cases that the library still breaks are marked
xfail(strict=True) with the ROADMAP item that mends them, so a fix shows as
an XPASS, which fails until its marker goes.
"""

import mpmath
import pytest

import wcs
from wcs import DeformationParams, PhysicalScales
from wcs.errors import ConvergenceError, NumericalRangeError

TYPED = (NumericalRangeError, ConvergenceError)


def _mp_bracket(a, b, v, n):
    """[n] at mpf (alpha, beta, nu), at the working precision."""
    lg = mpmath.loggamma
    return mpmath.exp(lg(b * n + 1) - lg(b * n + 1 - a)
                      + lg(b * n + 1 - a + v) - lg(b * (n - 1) + 1 - a + v))


def _mp_n(z, triple, digits=30):
    """N(z) = sum z^n / [n]! at real z, in mpmath, at `digits` digits plus
    those its sum cancels: the terms run past their peak until one is below
    10^-dps of the largest, and dps doubles until the sum's value keeps
    `digits` digits above that rounding."""
    dps = digits + 10
    while True:
        with mpmath.workdps(dps):
            a, b, v = (mpmath.mpf(t) for t in triple)
            mz, eps = mpmath.mpf(z), mpmath.mpf(10) ** -dps
            terms, top, n = [mpmath.mpf(1)], 1, 0
            while len(terms) < 10 or abs(terms[-1]) >= min(eps * top, abs(terms[-2])):
                n += 1
                terms.append(terms[-1] * mz / _mp_bracket(a, b, v, n))
                top = max(top, abs(terms[-1]))
            total = mpmath.fsum(terms)
            if float(mpmath.log10(top / abs(total))) + digits <= dps:
                return total
            dps *= 2


def _mp_wright_phi(lam, mu, z):
    """Wright's phi(lam, mu; z) = sum z^n / (n! Gamma(lam n + mu)) at real
    z < 0 from its Hankel-contour integral, (1/2 pi i) times the integral of
    e^(s + z s^-lam) s^-mu ds (Wright, 1940), with no cancellation: on the
    parabola s = m (1 + iu)^2 through the exponent's two saddles, where
    s^(1 + lam) = -lam z, which carry the integral's mass, Gauss-Legendre
    on pieces of a tenth of a saddle's width in u across each."""
    with mpmath.workdps(30):
        lam, mu, z = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(z)
        saddle = (-lam * z) ** (1 / (1 + lam)) * mpmath.expjpi(1 / (1 + lam))
        m = (saddle.real + abs(saddle)) / 2
        u0 = saddle.imag / (2 * m)
        # the exponent's second derivative at the saddle, over (ds/du)^2
        width = 1 / (abs(2 * m * (1 + 1j * u0)) * mpmath.sqrt(abs(z * lam * (lam + 1)
                                                               * saddle ** (-lam - 2))))
        near = [u0 + width * j / 10 for j in range(-100, 101)]

        def integrand(u):
            s = m * (1 + 1j * u) ** 2
            return mpmath.exp(s + z * s ** -lam) * s ** -mu * 2 * m * (1 + 1j * u)

        pieces = [-mpmath.inf, *(-u for u in near[::-1]), *near, mpmath.inf]
        return mpmath.quad(integrand, pieces, method="gauss-legendre").real / (2 * mpmath.pi)


def _hermite_function(k, x, scales):
    """psi_k(x) of the classical oscillator at (hbar, m, omega)."""
    hbar, mass, omega = (mpmath.mpf(t) for t in scales)
    with mpmath.workdps(40):
        inv = mass * omega / hbar
        xi = mpmath.sqrt(inv) * mpmath.mpf(x)
        norm = (inv / mpmath.pi) ** mpmath.mpf(0.25) / mpmath.sqrt(2**k * mpmath.factorial(k))
        return norm * mpmath.hermite(k, xi) * mpmath.exp(-xi**2 / 2)


def _within(value, ref, tol):
    return abs(mpmath.mpf(value) - ref) <= tol * abs(ref)


def _series_contract(call, ref, tol=1e-12):
    """A SeriesResult within tol of ref, its flag aside, or a typed error."""
    try:
        value = call().value.real
    except TYPED:
        return
    assert _within(value, ref, tol), (value, float(ref))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_signed_n_at_minus_2_5():
    p = (0.0, 0.3, 0.5)
    ref = _mp_n(-2.5, p)
    _series_contract(lambda: wcs.n_function(-2.5, DeformationParams(*p)), ref)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_classical_n_at_minus_10_against_exp():
    ref = mpmath.exp(-10)
    _series_contract(lambda: wcs.n_function(-10.0, DeformationParams(0.0, 1.0, 0.0)), ref)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_wright_w_at_the_edge_of_double_range():
    # at alpha = 1, [n]! = beta^n n! Gamma(beta n + nu) / Gamma(nu), so
    # wright_w(x) = N(x) / Gamma(nu) is phi(beta, nu; x / beta)
    p = (1.0, 0.3, 0.2)
    with mpmath.workdps(30):
        ref = _mp_wright_phi(0.3, 0.2, mpmath.mpf(-759.0) / mpmath.mpf(0.3))
    _series_contract(lambda: wcs.wright_w(-759.0, DeformationParams(*p)), ref)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_first_derivative_at_the_edge_of_double_range():
    # at (0, 1, nu), [n]! = Gamma(n + 1 + nu) / Gamma(1 + nu), so N(x) is
    # 1F1(1; 1 + nu; x) and N'(x) = 1F1(2; 2 + nu; x) / (1 + nu)
    p = (0.0, 1.0, 0.5)
    with mpmath.workdps(30):
        ref = mpmath.hyp1f1(2, 2.5, -717) / mpmath.mpf(1.5)
    _series_contract(lambda: wcs.n_function_derivative(-717.0, 1, DeformationParams(*p)), ref)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_classical_derivative_of_order_200000():
    # every derivative of e^x is e^x, so its log at x = 0.5 is 0.5
    try:
        value = wcs.log_n_derivative(0.5, 200_000, DeformationParams(0.0, 1.0, 0.0))
    except TYPED:
        return
    assert abs(value - 0.5) <= 1e-12 * 0.5


def _wavefunction_contract(k, x, scales, tol=1e-12):
    """wavefunction_sample within tol of the Hermite function, its flag
    aside, or a typed error."""
    ref = _hermite_function(k, x, scales)
    try:
        value, _ = wcs.wavefunction_sample(k, x, DeformationParams(0.0, 1.0, 0.0),
                                           PhysicalScales(*scales))
    except TYPED:
        return
    assert _within(value, ref, tol), (value, float(ref))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_flagged_ground_state_at_8():
    # pi^(-1/4) e^(-32), returned as -1.39e-4 with the cancellation flag
    _wavefunction_contract(0, 8.0, (1.0, 1.0, 1.0))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_unflagged_ninth_level():
    _wavefunction_contract(9, 1.7, (0.5, 2.0, 1.5))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_first_bracket_at_tiny_beta():
    # log [1] at alpha = 1: log Gamma(b + 1) - log Gamma(b) + log Gamma(b + nu)
    # - log Gamma(nu), within 16 ulps of max(|log [1]|, 1)
    a, b, v = 1.0, 1e-15, 0.5
    with mpmath.workdps(50):
        ma, mb, mv = (mpmath.mpf(t) for t in (a, b, v))
        ref = mpmath.log(_mp_bracket(ma, mb, mv, 1))
    got = wcs.log_box(1, DeformationParams(a, b, v))
    assert abs(mpmath.mpf(got) - ref) <= 16 * 2.0**-52 * max(abs(ref), 1)


def _mp_mandel_qm(triple, x, dps=30):
    """(<[N]^2> - <[N]>^2) / <[N]> - 1 from the Fock sums of w_n = x^n / [n]!,
    run until 8 terms in a row of each are below 10^-dps of its sum."""
    with mpmath.workdps(dps):
        a, b, v = (mpmath.mpf(t) for t in triple)
        mx, eps = mpmath.mpf(x), mpmath.mpf(10) ** -dps
        w, sums = mpmath.mpf(1), [mpmath.mpf(1), 0, 0]  # w, [n] w, [n]^2 w
        n = run = 0
        while run < 8:
            n += 1
            box = _mp_bracket(a, b, v, n)
            w = w * mx / box
            terms = (w, box * w, box * box * w)
            sums = [s + t for s, t in zip(sums, terms)]
            run = run + 1 if all(t <= eps * s for t, s in zip(terms, sums)) else 0
        e1, e2 = sums[1] / sums[0], sums[2] / sums[0]
        return (e2 - e1 * e1) / e1 - 1


@pytest.mark.parametrize("triple, x", [((0.0, 0.5, 0.0), 100.0), ((1.0, 1.0, 0.5), 2000.0),
                                       ((0.3, 0.7, 0.2), 40.0)])
def test_mandel_qm_at_large_x(triple, x):
    # at the photon-stats scale, |error| / (1 + x), against its 1e-13 series tol
    label = wcs.CoherentLabel.from_intensity(x)
    got = wcs.mandel_qm(label, DeformationParams(*triple))
    ref = _mp_mandel_qm(triple, label.x)
    assert abs(mpmath.mpf(got) - ref) <= 1e-14 * (1 + x)
