"""Standalone numerical verification of the Gegenbauer / hyperspherical identity family.

Each operation evaluates both sides of one identity and returns them next to
a residual, never a bare boolean, so the verification report can show the
numbers.  Two of the identities circulate in print with defects; those
operations evaluate the printed variant alongside the corrected one:

* the Legendre duplication formula is often quoted with 2^(2n) where the
  correct power is 2^(2n+1) (off by exactly a factor 2);
* the Laplace-type integral representation of the Gegenbauer generating
  function needs the factor 2^l l! (alpha sin chi)^l on the closed-form side;
  ``integral_rep`` measures that constant instead of asserting a prefactor.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np

from . import quadrature
from .specfun import (
    QuantumNumbers,
    gegenbauer,
    gegenbauer_ladder,
    spherical_angles,
    spherical_bessel,
    spherical_bessels,
    spherical_harmonic,
    spherical_harmonics,
    wigner_3j,
    wigner_D_su2,
    wigner_d_small,
)

__all__ = [
    "genfunc_gegenbauer",
    "bessel_genfunc",
    "gegenbauer_recurrence_ladder",
    "integral_rep",
    "plane_wave_partial",
    "duplication_check",
    "hyperspherical_harmonic",
    "hyperspherical_on_s3",
    "hyperspherical_Y",
    "triple_D_integral",
    "passage_residual",
    "passage_phase",
    "point_on_s3",
    "su2_of_point",
]


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

GENFUNC_MAX_TERMS = 600  # cap on the adaptive Gegenbauer series
BESSEL_GENFUNC_TERMS = 60  # terms of the Bessel-weighted Gegenbauer series
BESSEL_RATIO_TERMS = 80  # cap on the power series of (w/2)^-nu J_nu(w)


class GenFuncCheck(NamedTuple):
    closed: float
    series: float
    residual: float


def genfunc_gegenbauer(a: float, t: float, x: float) -> GenFuncCheck:
    """(1 - 2xt + t^2)^-a against its Gegenbauer series, summed adaptively."""
    if abs(t) >= 1.0:
        raise ValueError(f"need |t| < 1, got t={t}")
    if abs(t) > 0.9:
        warnings.warn("generating-function series converges slowly for |t| near 1")
    closed = (1.0 - 2.0 * x * t + t * t) ** (-a)
    series = 0.0
    small = 0
    for m, c in zip(range(GENFUNC_MAX_TERMS), gegenbauer_ladder(a, x)):
        term = t ** m * c
        series += term
        small = small + 1 if abs(term) < 1e-13 * max(1.0, abs(series)) else 0
        if small >= 3:
            break
    return GenFuncCheck(closed, series, abs(closed - series) / max(1.0, abs(closed)))


class BesselGenFuncCheck(NamedTuple):
    lhs: float
    rhs: float
    residual: float


def _bessel_ratio(nu: float, w: float) -> float:
    # (w/2)^-nu J_nu(w), entire in w^2; plain series is accurate for |w| <~ 30
    h = 0.25 * w * w
    total = 0.0
    for k in range(BESSEL_RATIO_TERMS):
        term = (-h) ** k * math.exp(-math.lgamma(k + 1.0) - math.lgamma(nu + k + 1.0))
        total += term
        if k > 4 and abs(term) < 1e-18:
            break
    return total


def bessel_genfunc(a: float, z: float, chi: float) -> BesselGenFuncCheck:
    """Bessel-weighted Gegenbauer generating function.

    lhs = e^(z cos chi) (z sin(chi)/2)^(1/2-a) J_(a-1/2)(z sin chi),
    rhs = sum_n Gamma(2a) / (Gamma(a+1/2) Gamma(2a+n)) C_n^(a)(cos chi) z^n.

    The endpoint chi in {0, pi} is the sin(chi) -> 0 limit, handled by the
    power-series form of the Bessel factor.
    """
    if a <= 0.0:
        raise ValueError(f"order must be positive, got a={a}")
    if z < 0.0:
        raise ValueError(f"need z >= 0, got z={z}")
    w = z * math.sin(chi)
    lhs = math.exp(z * math.cos(chi)) * _bessel_ratio(a - 0.5, w)
    lg2a = math.lgamma(2.0 * a)
    lgha = math.lgamma(a + 0.5)
    rhs = sum(
        math.exp(lg2a - lgha - math.lgamma(2.0 * a + nn)) * c * z ** nn
        for nn, c in zip(range(BESSEL_GENFUNC_TERMS), gegenbauer_ladder(a, math.cos(chi)))
    )
    return BesselGenFuncCheck(lhs, rhs, abs(lhs - rhs) / max(1.0, abs(lhs)))


def gegenbauer_recurrence_ladder(a: float, n_max: int, x: float) -> list:
    """Residual of (n+a) C_(n+1)^(a-1) = (a-1) [C_(n+1)^(a) - C_(n-1)^(a)] at
    every degree n = 0, ..., n_max.

    Negative-degree polynomials count as zero.  Needs a > 1/2 so the lowered
    order stays in range.  Returns one (residual, C_(n+1)^(a)(x)) pair per
    degree, the rung kept for scaling the residual.  One ladder in a and one
    in a - 1 serve every degree.
    """
    if a <= 0.5:
        raise ValueError(f"need order a > 1/2, got a={a}")
    if n_max < 0:
        raise ValueError(f"need degree n >= 0, got n={n_max}")
    upper = list(itertools.islice(gegenbauer_ladder(a, x), n_max + 2))
    lowered = itertools.islice(gegenbauer_ladder(a - 1.0, x), 1, n_max + 2)
    out = []
    for n, c_low in enumerate(lowered):
        lhs = (n + a) * c_low
        rhs = (a - 1.0) * (upper[n + 1] - (upper[n - 1] if n else 0.0))
        out.append((abs(lhs - rhs), upper[n + 1]))
    return out


class IntegralRepCheck(NamedTuple):
    lhs: float
    rhs: float
    ratio: float
    kappa: float


def integral_rep(l: int, alpha: float, chi: float, quad_nodes: int = 200) -> IntegralRepCheck:
    """Laplace-type integral representation of the generating function.

    lhs = (1 - 2 alpha cos chi + alpha^2)^-(l+1);
    rhs = integral_0^inf e^-t t^(l+1) e^(alpha t cos chi) j_l(alpha t sin chi) dt,
    evaluated by Gauss-Laguerre after rescaling t so the full exponential
    decay sits in the weight.

    ratio = rhs/lhs carries the factor (alpha sin chi)^l;
    kappa = ratio / (alpha sin chi)^l is the chi-independent calibration
    constant of the identity, equal to 2^l l! (the l = 0 case closes exactly).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if not 0.0 < chi < math.pi:
        raise ValueError(f"need chi in (0, pi), got {chi}")
    damp = 1.0 - alpha * math.cos(chi)  # > 1 - alpha > 0
    lhs = (1.0 - 2.0 * alpha * math.cos(chi) + alpha * alpha) ** (-(l + 1.0))
    rule = quadrature.gauss_laguerre(quad_nodes, float(l + 1))
    c = alpha * math.sin(chi) / damp
    terms = rule.weights * spherical_bessel(l, c * rule.nodes)
    rhs = float(quadrature.rule_sum(terms, quad_nodes)) / damp ** (l + 2)
    ratio = rhs / lhs
    kappa = ratio / (alpha * math.sin(chi)) ** l
    return IntegralRepCheck(lhs, rhs, ratio, kappa)


class PlaneWaveCheck(NamedTuple):
    exact: complex
    partial: complex
    residual: float


def plane_wave_partial(rvec, rpvec, L: int) -> PlaneWaveCheck:
    """Truncated spherical-harmonic expansion of exp(i r.r').

    partial = 4 pi sum_(l<=L) sum_m i^l j_l(r r') conj(Y_lm(r'-hat)) Y_lm(r-hat).
    """
    rvec = np.asarray(rvec, dtype=float)
    rpvec = np.asarray(rpvec, dtype=float)
    exact = complex(np.exp(1j * float(rvec @ rpvec)))
    r = float(np.linalg.norm(rvec))
    rp = float(np.linalg.norm(rpvec))
    if r == 0.0 or rp == 0.0:
        # only the monopole survives: j_0(0) Y_00 conj(Y_00) 4 pi = 1
        return PlaneWaveCheck(exact, 1.0 + 0.0j, abs(exact - 1.0))
    _, th, ph = spherical_angles(rvec)
    _, thp, php = spherical_angles(rpvec)
    ylm = spherical_harmonics(L, th, ph)
    ylm_p = spherical_harmonics(L, thp, php)
    jl = spherical_bessels(L, r * rp)
    partial = 0.0 + 0.0j
    for l in range(L + 1):
        msum = sum(np.conj(ylm_p[l, m]) * ylm[l, m] for m in range(-l, l + 1))
        partial += 4.0 * math.pi * 1j ** l * jl[l] * msum
    return PlaneWaveCheck(exact, partial, abs(exact - partial) / max(1.0, abs(exact)))


class DuplicationCheck(NamedTuple):
    printed: float
    corrected: float


def duplication_check(n: int) -> DuplicationCheck:
    """Legendre duplication formula residuals, printed and corrected variants.

    printed:   Gamma(1/2) Gamma(2n+2) = 2^(2n)   Gamma(n+3/2) Gamma(n+1)
    corrected: Gamma(1/2) Gamma(2n+2) = 2^(2n+1) Gamma(n+3/2) Gamma(n+1)

    The printed variant fails by exactly a factor 2 at every n; both relative
    residuals are returned (computed in log space).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    log_lhs = math.lgamma(0.5) + math.lgamma(2.0 * n + 2.0)
    log_rhs = math.lgamma(n + 1.5) + math.lgamma(n + 1.0)
    printed = abs(1.0 - math.exp(2.0 * n * math.log(2.0) + log_rhs - log_lhs))
    corrected = abs(1.0 - math.exp((2.0 * n + 1.0) * math.log(2.0) + log_rhs - log_lhs))
    return DuplicationCheck(printed, corrected)


# ---------------------------------------------------------------------------
# hyperspherical harmonics and the passage to D-matrices
# ---------------------------------------------------------------------------

def point_on_s3(chi: float, theta: float, phi: float) -> np.ndarray:
    """Unit 4-vector (x, y, z, q) with polar angle chi and 2-sphere angles."""
    s = math.sin(chi)
    return np.array([
        s * math.sin(theta) * math.cos(phi),
        s * math.sin(theta) * math.sin(phi),
        s * math.cos(theta),
        math.cos(chi),
    ])


def su2_of_point(v) -> np.ndarray:
    """The SU(2) element [[q+iz, x+iy], [-x+iy, q-iz]] of a unit 4-vector."""
    x, y, z, q = (float(c) for c in np.asarray(v, dtype=float))
    return np.array([[q + 1j * z, x + 1j * y], [-x + 1j * y, q - 1j * z]])


def hyperspherical_harmonic(n: int, l: int, m: int, coschi, sinchi, theta, phi,
                            radial=1.0):
    """4-D spherical harmonic Y_nlm from its angles; arrays broadcast together.

    radial * 2^(l+1) l! sqrt(n (n-l-1)!/(2 pi (n+l)!)) sin^l(chi)
    C_(n-l-1)^(l+1)(cos chi) Y_lm(theta, phi), orthonormal on the unit
    3-sphere when ``radial`` is 1.
    """
    QuantumNumbers(n, l, m)
    norm = (
        2.0 ** (l + 1)
        * math.exp(math.lgamma(l + 1.0) + 0.5 * (
            math.log(n) + math.lgamma(n - l) - math.log(2.0 * math.pi) - math.lgamma(n + l + 1.0)
        ))
    )
    return (
        radial
        * norm
        * sinchi ** l
        * gegenbauer(n - l - 1, l + 1.0, coschi)
        * spherical_harmonic(l, m, theta, phi)
    )


def hyperspherical_on_s3(n: int, l: int, m: int, rule: quadrature.ProductRule) -> np.ndarray:
    """Y_nlm on the (chi, theta, phi) product grid of ``quadrature.s3_rule``."""
    chi, theta, phi = rule.nodes
    return hyperspherical_harmonic(n, l, m, np.cos(chi), np.sin(chi), theta, phi)


def hyperspherical_Y(n: int, l: int, m: int, v) -> complex:
    """4-D spherical harmonic Y_nlm at a point v of R^4.

    On the unit 3-sphere this is ``hyperspherical_harmonic`` at the angles of
    v.  Off the sphere the value is extended homogeneously with degree n-1,
    which keeps it harmonic in R^4.
    """
    QuantumNumbers(n, l, m)
    v = np.asarray(v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        raise ValueError("hyperspherical harmonics are undefined at the origin")
    coschi = min(1.0, max(-1.0, v[3] / vnorm))
    sinchi = math.sqrt(max(0.0, 1.0 - coschi * coschi))
    if sinchi == 0.0 and l > 0:
        return 0.0 + 0.0j
    _, theta, phi = spherical_angles(v[:3]) if sinchi > 0.0 else (0.0, 0.0, 0.0)
    return complex(hyperspherical_harmonic(
        n, l, m, coschi, sinchi, theta, phi, radial=vnorm ** (n - 1)
    ))


class TripleDCheck(NamedTuple):
    numeric: complex
    threej_product: float
    residual: float


# Gauss-Legendre nodes in cos(theta) of triple_D_integral
_TRIPLE_D_NODES = 64


@functools.lru_cache(maxsize=64)
def _haar_d(j, mp, m) -> np.ndarray:
    """d^j_(mp,m) at the theta nodes of ``triple_D_integral``, read-only.

    Only (j, j, m1), (j, -j, m2) and (l, 0, m) vary over a sweep of that
    integral, so each array is built once instead of once per call.
    """
    d = wigner_d_small(j, mp, m, np.arccos(quadrature.gauss_legendre(_TRIPLE_D_NODES).nodes))
    d.setflags(write=False)
    return d


def triple_D_integral(n: int, m1, m2, l: int, m: int) -> TripleDCheck:
    """Haar integral of D^j_(j,m1) D^j_(-j,m2) D^l_(0,m) with j = (n-1)/2.

    numeric: product quadrature, 64-node Gauss-Legendre in cos(theta) and a
    uniform 32-point phi grid, normalized by 8 pi^2.  The psi weights of the
    three factors are j, -j and 0: they cancel, so the psi integral is 2 pi.
    threej_product: 3j(j,j,l; j,-j,0) * 3j(j,j,l; m1,m2,m).
    The residual is absolute, so selection-rule zeros are compared honestly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = 0.5 * (n - 1)
    dprod = _haar_d(j, j, m1) * _haar_d(j, -j, m2) * _haar_d(l, 0, m)
    theta_part = float(np.sum(quadrature.gauss_legendre(_TRIPLE_D_NODES).weights * dprod))
    phi = 2.0 * math.pi * np.arange(32) / 32
    mtot = m1 + m2 + m
    phi_part = complex(np.sum(np.exp(-1j * mtot * phi))) * 2.0 * math.pi / 32
    numeric = theta_part * (2.0 * math.pi) * phi_part / (8.0 * math.pi ** 2)
    threej = wigner_3j(j, j, l, j, -j, 0) * wigner_3j(j, j, l, m1, m2, m)
    return TripleDCheck(numeric, threej, abs(numeric - threej))


class PassageCheck(NamedTuple):
    residual: float
    lhs: complex
    rhs: complex


def _passage_rhs(n: int, l: int, m: int, u2: np.ndarray) -> complex:
    # D^j_(m1,m2) of the point matrix varies as e^(i(m1-m2)phi), so the
    # elements feeding Y_nlm have m2 = m1 - m; the 3j row (m1, -m2, -m)
    # enforces exactly that.  The overall phase is (-i)^(l+m): its l-part is
    # the widely quoted one, the m-part pairs with the -m in the 3j row.
    # (The variant with third entry +m and phase (-i)^l only closes at m=0;
    # the verification report records this.)
    j = 0.5 * (n - 1)
    two_j = n - 1
    total = 0.0 + 0.0j
    for two_m1 in range(-two_j, two_j + 1, 2):
        m1 = 0.5 * two_m1
        m2 = m1 - m
        if abs(m2) > j + 1e-12:
            continue
        w3 = wigner_3j(j, j, l, m1, -m2, -m)
        if w3 == 0.0:
            continue
        sign = (-1.0) ** round(j - m2)
        total += sign * w3 * wigner_D_su2(j, m1, m2, u2)
    return (
        ((-1j) ** (l + m) / math.pi)
        * math.sqrt(0.5 * n) * math.sqrt(2.0 * l + 1.0) * total
    )


def passage_residual(
    n: int, l: int, m: int, chi: float, theta: float, phi: float,
    phase: complex = 1.0,
) -> PassageCheck:
    """Hyperspherical harmonic against its D-matrix expansion at one point.

    lhs = Y_nlm at the S^3 point (chi, theta, phi); rhs = the 3j-weighted sum
    of D^((n-1)/2) elements of the point's own SU(2) matrix, multiplied by
    ``phase`` (use ``passage_phase`` to factor out a global unit per (n, l)).
    """
    v = point_on_s3(chi, theta, phi)
    lhs = hyperspherical_Y(n, l, m, v)
    rhs = phase * _passage_rhs(n, l, m, su2_of_point(v))
    return PassageCheck(abs(lhs - rhs) / max(1.0, abs(lhs)), lhs, rhs)


def passage_phase(n: int, l: int) -> complex:
    """Measured global phase unit between Y_nlm and its D-matrix expansion.

    Evaluated at a fixed generic point with m chosen to make both sides
    comfortably nonzero; the returned value multiplies the expansion.
    """
    chi, theta, phi = 0.9, 1.1, 0.7
    for m in range(0, l + 1):
        v = point_on_s3(chi, theta, phi)
        lhs = hyperspherical_Y(n, l, m, v)
        rhs = _passage_rhs(n, l, m, su2_of_point(v))
        if abs(lhs) > 1e-8 and abs(rhs) > 1e-12:
            ratio = lhs / rhs
            return ratio / abs(ratio)
    return 1.0 + 0.0j
