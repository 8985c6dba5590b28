"""Hydrogen bound states in position and momentum space.

Atomic units throughout (hbar = m_e = e = 1, Z = 1): lengths in bohr,
momenta in 1/bohr, energies in hartree.  The state (n, l, m) has inverse
length delta = 1/n and radial scale omega = 2*delta.

The closed-form momentum wavefunction evaluated here is

    psi~(p) = i^l N_nl (l!/sqrt(2 pi)) n (4 delta)^(l+1) / (p^2+delta^2)^(l+2)
              * C_(n-l-1)^(l+1)(x) * p^l Y_lm(p-hat),
    x = (p^2 - delta^2)/(p^2 + delta^2),

where C is a Gegenbauer polynomial and x is the Fock variable (the fourth
coordinate of the stereographic image of p on the unit 3-sphere).  The i^l
phase is kept exactly as the closed form states it; the independent Fourier
oracle (quadrature.radial_hankel) carries (-i)^l, and the verification suite
measures and reports the constant offset per (n, l) instead of asserting
either convention.  That oracle and the norm and overlap integrals live in
``quadrature``; this module builds no rule.

The three generating functions (position side, regulated momentum side,
momentum side) expand into the bound-state basis.  They take the expansion
variables as plain arguments that broadcast together: z (|z| < 1) tracks n,
alpha tracks l and (xi, eta) track m through the null vector
a = (-xi^2 + eta^2, -i(xi^2 + eta^2), 2 xi eta).  Mixed Taylor coefficients
are recovered numerically by Cauchy circle quadrature in (z, alpha, xi, eta).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularityError
from .specfun import (
    QuantumNumbers,
    check_integer_labels,
    gegenbauer,
    laguerre,
    spherical_angles,
    spherical_harmonic,
)

__all__ = [
    "FockPoint",
    "normalization",
    "radial_position",
    "psi_position",
    "radial_momentum",
    "psi_momentum",
    "energy",
    "fock_map",
    "genfunc_position",
    "genfunc_momentum_regulated",
    "genfunc_momentum",
    "extract_coefficient",
    "extraction_scale",
    "extraction_nodes",
    "EXTRACTION_RADII",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockPoint:
    """A point y on the unit 3-sphere; x = y4 is the Fock variable."""

    y: tuple

    def __post_init__(self):
        if len(self.y) != 4:
            raise ValueError("Fock point needs four components")
        norm = sum(c * c for c in self.y)
        if not abs(norm - 1.0) <= 1e-12:  # a NaN component fails too
            raise ValueError(f"|y|^2 = {norm!r} is not 1")

    @property
    def x(self) -> float:
        return self.y[3]


# ---------------------------------------------------------------------------
# closed-form wavefunctions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256, typed=True)
def normalization(n: int, l: int) -> float:
    """Radial normalization N_nl = (2/n^2) sqrt((n-l-1)!/(n+l)!).

    Cached per (n, l) and argument type, so each type keeps the value its
    own arithmetic gives (a float32 n computes n^2 in float32); invalid
    labels raise on every call, since an exception is never cached.
    """
    QuantumNumbers(n, l, 0)
    return (2.0 / n ** 2) * math.exp(_log_root_ratio(n, l))


def _log_root_ratio(n: int, l: int) -> float:
    # log sqrt((n-l-1)!/(n+l)!), the factorial part of log N_nl
    return 0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1))


def radial_position(n: int, l: int, r):
    """Radial wavefunction R_nl evaluated at radius r (bohr).

    R_nl = N_nl x^l e^(-x/2) L_(n-l-1)^(2l+1)(x) with x = 2r/n; satisfies
    integral R^2 r^2 dr = 1.
    """
    QuantumNumbers(n, l, 0)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * r / n
        val = normalization(n, l) * x ** l * np.exp(-0.5 * x) * laguerre(n - l - 1, 2 * l + 1, x)
    if not _all_finite(val):
        far = ~np.isfinite(val) & ~np.isnan(x)
        val = np.array(val)
        val[far] = _radial_position_logs(n, l, x[far])
    return val if val.ndim else float(val)


def _all_finite(val) -> bool:
    # cmath takes float and complex scalars, quicker than a numpy reduction
    return bool(np.isfinite(val).all()) if isinstance(val, np.ndarray) else cmath.isfinite(val)


def _radial_position_logs(n: int, l: int, x):
    # R_nl where x^l or L(x) overflows: the Laguerre recurrence run on
    # L_i(x) / x^i, and the factors multiplied as a sum of logs, so that the
    # result underflows to 0 where the direct product forms inf * 0.
    x = np.minimum(x, np.finfo(float).max)
    k, a = n - l - 1, 2.0 * l + 1.0
    prev, cur = np.ones_like(x), np.ones_like(x)
    if k:
        cur = (1.0 + a - x) / x
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 + a - x) / x * cur - (i + a) / x / x * prev) / (i + 1)
    log_norm = math.log(2.0 / n ** 2) + _log_root_ratio(n, l)
    with np.errstate(divide="ignore"):
        log_abs = log_norm + (n - 1) * np.log(x) - 0.5 * x + np.log(np.abs(cur))
    return np.sign(cur) * np.exp(log_abs)


def psi_position(qn: QuantumNumbers, rvec) -> complex:
    """Position-space wavefunction psi_nlm at a cartesian point (bohr)."""
    r, theta, phi = spherical_angles(rvec)
    if r == 0.0:
        if qn.l > 0:
            return 0.0 + 0.0j
        return complex(radial_position(qn.n, 0, 0.0) / math.sqrt(4.0 * math.pi))
    return radial_position(qn.n, qn.l, r) * spherical_harmonic(qn.l, qn.m, theta, phi)


def radial_momentum(n: int, l: int, p):
    """Radial factor of the momentum wavefunction, including the p^l power.

    psi~_nlm(pvec) = radial_momentum(n, l, |p|) * Y_lm(p-hat).  Complex
    because of the i^l phase.
    """
    QuantumNumbers(n, l, 0)
    p = np.asarray(p, dtype=float)
    delta = 1.0 / n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p2d2 = p ** 2 + delta ** 2
        x = (p ** 2 - delta ** 2) / p2d2
        pl = p ** l
        try:
            val = (
                1j ** l
                * normalization(n, l)
                * math.exp(math.lgamma(l + 1.0)) / _SQRT2PI
                * n * (4.0 * delta) ** (l + 1)
                / p2d2 ** (l + 2)
                * gegenbauer(n - l - 1, l + 1.0, x)
                * pl
            )
        except (OverflowError, ZeroDivisionError):
            # l! overflows for l > 170; at a scalar p, (p^2 + delta^2)^(l+2)
            # can underflow to 0, and the float division raises
            val = np.full(p.shape, np.nan, dtype=complex)
    if not _all_finite(val):
        # where p^2 or p^l overflows, |val| is below a modest constant times
        # p^-(l+4), which underflows: the product formed inf / inf or inf * 0
        val = np.where(np.isinf(p2d2) | np.isinf(pl), 0j, val)
        # elsewhere a factor left the double range while the value did not
        rest = ~np.isfinite(val) & ~np.isnan(p)
        if np.any(rest):
            val[rest] = _radial_momentum_logs(n, l, p[rest], x[rest])
    return val if np.ndim(val) else complex(val)


def _radial_momentum_logs(n: int, l: int, p, x):
    # radial_momentum at points where l!, (p^2 + delta^2)^(l+2) or p^l left
    # the double range: the factors multiplied as a sum of logs, so that the
    # result underflows to 0 where the true value does
    delta = 1.0 / n
    log_const = (
        math.log(2.0 / n ** 2) + _log_root_ratio(n, l)
        + math.lgamma(l + 1.0) - math.log(_SQRT2PI) + math.log(n)
        + (l + 1) * math.log(4.0 * delta)
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = gegenbauer(n - l - 1, l + 1.0, x)
        log_abs = log_const - (l + 2) * np.log(p ** 2 + delta ** 2) + np.log(np.abs(c))
        if l:
            log_abs += l * np.log(p)
    return (1, 1j, -1, -1j)[l % 4] * np.sign(c) * np.exp(log_abs)


def psi_momentum(qn: QuantumNumbers, pvec) -> complex:
    """Momentum-space wavefunction psi~_nlm at a cartesian momentum point."""
    p, theta, phi = spherical_angles(pvec)
    if p == 0.0:
        if qn.l > 0:
            return 0.0 + 0.0j
        return complex(radial_momentum(qn.n, 0, 0.0) / math.sqrt(4.0 * math.pi))
    return radial_momentum(qn.n, qn.l, p) * spherical_harmonic(qn.l, qn.m, theta, phi)


def energy(n: int) -> float:
    """Bound-state energy -1/(2 n^2) hartree."""
    QuantumNumbers(n, 0, 0)
    return -0.5 / (n * n)


def fock_map(pvec, delta: float) -> FockPoint:
    """Stereographic projection of momentum space onto the unit 3-sphere.

    y = (2 delta p, p^2 - delta^2) / (p^2 + delta^2); p = 0 maps to the
    south pole (0, 0, 0, -1).
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    pvec = np.asarray(pvec, dtype=float)
    if pvec.ndim == 0:
        pvec = np.array([0.0, 0.0, float(pvec)])
    with np.errstate(over="ignore"):
        p2 = float(pvec @ pvec)
    denom = p2 + delta * delta
    if (not sys.float_info.min <= denom < math.inf
            and np.all(np.isfinite(pvec)) and math.isfinite(delta)):
        # p^2 + delta^2 overflowed or is not a normal double (0 at p = 0 for
        # delta < 1e-162); y is invariant under scaling (p, delta)
        scale = max(float(np.max(np.abs(pvec))), delta)
        return fock_map(pvec / scale, delta / scale)
    y = (
        2.0 * delta * pvec[0] / denom,
        2.0 * delta * pvec[1] / denom,
        2.0 * delta * pvec[2] / denom,
        (p2 - delta * delta) / denom,
    )
    return FockPoint(y)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _null_dot(xi, eta, vec):
    # a . v for the null vector built from (xi, eta); broadcast-safe
    x, y, z = (float(c) for c in vec)
    xi2 = np.asarray(xi) ** 2
    eta2 = np.asarray(eta) ** 2
    return (-xi2 + eta2) * x - 1j * (xi2 + eta2) * y + 2.0 * np.asarray(xi) * np.asarray(eta) * z


def _inside_unit_disc(z):
    z = np.asarray(z)
    if np.max(np.abs(z)) >= 1.0:
        raise ValueError("generating variable must satisfy |z| < 1")
    return z


def genfunc_position(z, alpha, xi, eta, rvec, delta):
    """Position-side generating function.

    z/(1-z)^2 * exp[-omega r (1+z)/(2(1-z)) + alpha omega z (a.r)/(2(1-z)^2)]
    with omega = 2*delta fixed by the caller's reference state.
    """
    z = _inside_unit_disc(z)
    omega = 2.0 * delta
    r = float(np.linalg.norm(np.asarray(rvec, dtype=float)))
    adotr = _null_dot(xi, eta, rvec)
    one = 1.0 - z
    # (z, alpha) factors combine before they meet the (xi, eta) plane
    return z / one ** 2 * np.exp(
        -omega * r * (1.0 + z) / (2.0 * one) + alpha * (omega * z / (2.0 * one ** 2)) * adotr
    )


def _momentum_denominator(z, alpha, xi, eta, beta, pvec, delta):
    # (delta(1+z) + beta(1-z))^2 + (1-z)^2 p^2 + 2i alpha delta z (a.p),
    # refused where it vanishes; beta = 0 gives the unregulated momentum side
    pvec = np.asarray(pvec, dtype=float)
    p2 = float(pvec @ pvec)
    denom = (
        (delta * (1.0 + z) + beta * (1.0 - z)) ** 2
        + (1.0 - z) ** 2 * p2
        + 2j * alpha * delta * z * _null_dot(xi, eta, pvec)
    )
    if np.min(np.abs(denom)) < 1e-14 * max(1.0, delta ** 2 + p2):
        raise SingularityError("generating-function denominator vanishes")
    return denom


def genfunc_momentum_regulated(z, alpha, xi, eta, beta, pvec, delta):
    """Regulated momentum-side generating function, analytic in the regulator beta."""
    z = _inside_unit_disc(z)
    denom = _momentum_denominator(z, alpha, xi, eta, beta, pvec, delta)
    return (2.0 / _SQRT2PI) * z / denom


def genfunc_momentum(z, alpha, xi, eta, pvec, delta):
    """Momentum-side generating function (the -d/dbeta at beta=0 of the
    regulated one)."""
    z = _inside_unit_disc(z)
    denom = _momentum_denominator(z, alpha, xi, eta, 0.0, pvec, delta)
    return (4.0 * delta / _SQRT2PI) * z * (1.0 - z ** 2) / denom ** 2


# ---------------------------------------------------------------------------
# Cauchy coefficient extraction
# ---------------------------------------------------------------------------

# Cauchy circle radii in (z, alpha, xi, eta)
EXTRACTION_RADII = (0.4, 0.5, 0.7, 0.7)


def extraction_scale(n: int, l: int) -> float:
    """The factor sqrt(4 pi/(2l+1)) / N_nl linking coefficients to psi."""
    return math.sqrt(4.0 * math.pi / (2 * l + 1)) / normalization(n, l)


def extraction_nodes(l: int) -> tuple:
    """Cauchy node counts (z, alpha, xi, eta) sized to the xi and eta degree 2l.

    Any k > 2l nodes are exact (see ``extract_coefficient``).  k = max(4,
    4l + 2), twice that, is the grid whose values the hydrogen suite reports
    and whose size perfbench counts; fewer nodes would move both.
    """
    k = max(4, 4 * l + 2)
    return (48, 24, k, k)


# the guard's bound on the top 4 z bins: max(_RTOL * |value|, _ATOL)
_RTOL, _ATOL = 1e-6, 1e-5


def extract_coefficient(kind: str, qn, n0: int, *, nodes=(48, 24, 24, 24)):
    """Numeric mixed Taylor coefficient of a generating function.

    Returns a callable mapping a cartesian space point to the coefficient of
    z^n alpha^l phi_lm(xi, eta) at delta = 1/n0, by the trapezoidal Cauchy
    rule on the circles ``EXTRACTION_RADII`` (|z| = 0.4, |alpha| = 0.5,
    |xi| = |eta| = 0.7).  For a state of the expansion (n = n0) it equals
    sqrt(4 pi/(2l+1)) psi_nlm / N_nl (see ``extraction_scale``).  The
    labels must be integers with n >= 1 and |m| <= l; l >= n is allowed
    (its coefficient is 0).  n0 must be finite and > 0, not an integer.

    Only z aliases.  Every term z^n alpha^l of both generating functions has
    l <= n - 1 and is (a.v)^l times a factor in z, with a.v quadratic in
    (xi, eta).  So M nodes pick alpha^l out exactly once M > max(l, n - 1),
    and xi^(l+m) or eta^(l-m) once M > 2l.  Other grids raise ValueError, as
    do fewer than n + 5 z nodes.

    Each point contracts the generating function over (alpha, xi, eta), in
    slabs of 4 z nodes, to a line over the z circle.  Its FFT over
    count * radius^n holds in bin k the z^k coefficient times radius^(k-n),
    plus aliases of degree k + count, k + 2 count, ...; bin n is the value.
    The top 4 bins hold lower degrees than any alias of bin n, so for
    geometrically decaying coefficients their largest modulus bounds the
    aliasing error.  Past max(1e-6 |value|, 1e-5) the callable raises
    ConvergenceError carrying it: the z rule is starved.
    """
    if kind not in ("position", "momentum"):
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    try:
        n, l, m = qn.n, qn.l, qn.m
    except AttributeError:
        n, l, m = qn
    check_integer_labels(n=n, l=l, m=m)
    if n < 1 or l < 0 or abs(m) > l:
        raise ValueError(f"invalid coefficient labels (n, l, m) = ({n}, {l}, {m})")
    if not (math.isfinite(n0) and n0 > 0):
        raise ValueError(f"n0 must be finite and positive, got {n0!r}")
    if nodes[0] < n + 5 or nodes[1] <= max(l, n - 1) or min(nodes[2:]) <= 2 * l:
        raise ValueError(f"grid {tuple(nodes)} too small for (n, l) = ({n}, {l})")

    zc, ac, xic, etac = (r * np.exp(1j * (2.0 * math.pi * np.arange(c) / c))
                         for r, c in zip(EXTRACTION_RADII, nodes))
    # trapezoid Cauchy weights: mean of G * node^(-degree) over each circle
    weights = np.einsum("a,x,e->axe", ac ** (-l) / nodes[1],
                        xic ** (-(l + m)) / nodes[2], etac ** (-(l - m)) / nodes[3])
    grid = np.meshgrid(ac, xic, etac, indexing="ij", sparse=True)
    norm = nodes[0] * EXTRACTION_RADII[0] ** n
    phi_norm = math.exp(0.5 * (math.lgamma(l + m + 1.0) + math.lgamma(l - m + 1.0)))

    genfunc = genfunc_position if kind == "position" else genfunc_momentum

    def coefficient(point) -> complex:
        line = np.empty(nodes[0], dtype=complex)
        for i in range(0, nodes[0], 4):  # at the default nodes a slab is 0.9 MB
            g = genfunc(zc[i:i + 4, None, None, None], *grid, point, 1.0 / n0)
            # not @ or tensordot, whose summation order follows the BLAS thread count
            line[i:i + 4] = np.einsum("zaxe,axe->z", g, weights)
        spec = np.fft.fft(line) / norm
        value = complex(spec[n])
        resid = float(np.max(np.abs(spec[-4:])))
        if resid > max(_RTOL * abs(value), _ATOL):
            raise ConvergenceError(
                f"coefficient extraction did not converge (residual {resid:.3e})",
                residual=resid,
            )
        return value * phi_norm

    return coefficient
