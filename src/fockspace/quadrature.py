"""Deterministic quadrature engines and the seeded lattice-rule integrator.

Gauss-Legendre and Gauss-Hermite rules come from numpy; generalized
Gauss-Laguerre rules are built here with numpy alone: Halley iteration on
the three-term recurrence from asymptotic starts gives the nodes, and the
Christoffel-Darboux kernel gives the weights.  This module wraps them
behind a small immutable rule type, adds the product rules used for
angular and 3-sphere integrals, the radial Hankel transform
that serves as the independent Fourier oracle, and a randomly shifted
rank-1 lattice estimator of Gaussian averages.  The estimator takes real or
complex integrands; it is the one ``clifford.gaussian_mc`` and the Monte
Carlo route of ``quadmaps.ks_integral`` use.

Legendre and Laguerre rules are cached per process (bounded LRU); sharing
one instance between callers is safe because rules are frozen and their
arrays read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from . import specfun
from .errors import ConvergenceError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_laguerre",
    "gauss_hermite",
    "chebyshev_second",
    "angular_rule",
    "s3_rule",
    "radial_hankel",
    "mc_gaussian",
    "BLOCK_ROWS",
    "LATTICE_POINTS",
    "LATTICE_GENERATORS",
    "DEFAULT_SAMPLES",
    "LOG_ZERO_WEIGHT",
]

# Rows per block for integrands evaluated over a large point set (the lifted
# Gauss-Hermite mesh), so that their temporaries scale with the block.
BLOCK_ROWS = 8192
# The Korobov lattices of mc_gaussian.  Point k of the unshifted lattice is
# frac(k * (1, a, a^2, ..., a^(dim-1)) / N) with N = LATTICE_POINTS, a prime
# no larger than BLOCK_ROWS, so an integrand sees one block of rows per call.
# LATTICE_GENERATORS maps a dimension to its generator a, chosen by the P_2
# figure of merit alone: the a in [2, N/2] with the smallest P_2 at that
# dimension, the smaller a where two tie (a and +-1/a give the same lattice
# up to the order and the signs of the coordinates).  A dimension that is
# not a key uses the generator of the next larger key, or of the largest.
LATTICE_POINTS = 8191
LATTICE_GENERATORS = {2: 2431, 4: 622, 8: 1724}
# Default point budget of the Monte Carlo routes: 32 shifts of the lattice.
# The error is the spread of the shift means, so the fewer the shifts, the
# noisier the error and the more often a check judged in multiples of it
# fails by chance.
DEFAULT_SAMPLES = 32 * LATTICE_POINTS
# A Gauss-Laguerre weight whose bound has a log below this rounds to 0.0:
# the smallest subnormal double is e^-744.4, and the margin is e^56.
LOG_ZERO_WEIGHT = math.log(np.finfo(float).smallest_subnormal) - 56.0
# Gauss-Laguerre nodes: halvings of the bisection that places the starts
# (within pi/2^26 in the angle theta, below 3e-4 of the angular node spacing
# of at least pi/nu for nu < 2^24), the relative Halley step below which a
# node has converged, and the passes after which a node still moving is an
# error.
_START_HALVINGS = 24
_NODE_RTOL = 1e-9
_HALLEY_PASSES = 8


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable 1-D nodes/weights with the measure they integrate against.

    ``kind`` is one of "legendre", "laguerre", "hermite", "chebyshev2";
    ``alpha`` is the Laguerre superscript (weight t^alpha e^-t), unused
    otherwise.  ``measure`` is the total weight of the domain, used as a
    construction-time sanity check.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    alpha: float = 0.0
    measure: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)
        if not (np.all(np.isfinite(self.nodes)) and np.all(np.isfinite(self.weights))):
            raise ValueError("quadrature rule has non-finite nodes or weights")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("quadrature nodes must be strictly increasing")
        total = float(np.sum(self.weights))
        if self.measure and abs(total - self.measure) > 1e-12 * max(1.0, abs(self.measure)):
            raise ValueError(
                f"weights sum to {total!r}, expected measure {self.measure!r}"
            )

    def integrate(self, f) -> float:
        return float(np.sum(self.weights * f(self.nodes)))


@functools.lru_cache(maxsize=32)
def gauss_legendre(npts: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact through degree 2*npts - 1."""
    if not 2 <= npts <= 4096:
        raise ValueError(f"node count must be in [2, 4096], got {npts}")
    x, w = leggauss(npts)
    return QuadratureRule("legendre", x, w, measure=2.0)


def _laguerre_nodes(npts: int, a: float) -> np.ndarray:
    """Zeros of L_npts^a in increasing order, without an eigensolver.

    Starts: u = e^(-x/2) x^((a+1)/2) L_n^a solves u'' + R/(4x^2) u = 0 with
    R = -x^2 + nu x - a^2 and nu = 4n + 2a + 2.  Its Liouville-Green phase
    with Langer's term (DLMF 18.16) rises from 0 at the turning point x- to
    (n + 1/2) pi at x+, x-+ = (nu -+ D)/2 with D = sqrt(nu^2 - 4a^2), and
    zero m sits near phase (m - 1/4) pi.  In the angle theta of
    x = x- + D sin^2(theta) the phase is
        D/4 sin(2 theta) + nu/2 theta - a/2 (asin((nu - 2a^2/x)/D) + pi/2),
    and each start is found by bisection in theta.  Polish: Halley steps
    (Glaser, Liu & Rokhlin 2007), with L/L' from the ratio s_n of the monic
    polynomials, x L_n' = n L_n - (n+a) L_(n-1), and L''/L' from the
    Laguerre equation.  The ratio runs as d_k = s_k + (k+a), which is 0 at
    x = 0: d_1 = x, d_(k+1) = x + k / ((k+a)/d_k - 1).  Unlike s_k, d_k never
    adds x to a term of size k, so the smallest zeros keep their relative
    accuracy, and a zero of s_k passes through as an infinity, not a NaN.
    """
    nu = 4.0 * npts + 2.0 * a + 2.0
    width = math.sqrt(nu * nu - 4.0 * a * a)  # D = x+ - x-
    low = 2.0 * a * a / (nu + width)  # x-, without the cancellation of nu - D
    target = (np.arange(1, npts + 1) - 0.25) * math.pi
    lo, hi = np.zeros(npts), np.full(npts, 0.5 * math.pi)
    for _ in range(_START_HALVINGS):
        theta = 0.5 * (lo + hi)
        x = low + width * np.sin(theta) ** 2
        phase = 0.25 * width * np.sin(2.0 * theta) + 0.5 * nu * theta - 0.5 * a * (
            np.arcsin(np.clip((nu - 2.0 * a * a / x) / width, -1.0, 1.0)) + 0.5 * math.pi)
        below = phase < target
        lo = np.where(below, theta, lo)
        hi = np.where(below, hi, theta)
    x = low + width * np.sin(0.5 * (lo + hi)) ** 2
    moving = np.arange(npts)
    with np.errstate(divide="ignore", over="ignore"):
        for sweep in range(_HALLEY_PASSES):
            t = x[moving]
            d = t.copy()
            for k in range(1, npts):
                np.divide(k + a, d, out=d)
                np.subtract(d, 1.0, out=d)
                np.divide(k, d, out=d)
                np.add(d, t, out=d)
            u = t / (npts + npts * (npts + a) / (d - (npts + a)))
            step = u / (1.0 - u * ((t - a - 1.0) - npts * u) / (2.0 * t))
            x[moving] = t - step
            if sweep:
                moving = moving[np.abs(step) > _NODE_RTOL * t]
                if not moving.size:
                    return x
    raise ConvergenceError(
        f"{moving.size} of {npts} Gauss-Laguerre nodes (a = {a}) still moved "
        f"after {_HALLEY_PASSES} Halley passes"
    )


@functools.lru_cache(maxsize=32)
def gauss_laguerre(npts: int, a: float = 0.0) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight t^a e^-t on (0, inf).

    The nodes come from ``_laguerre_nodes`` (asymptotic starts, Halley
    polish) and the weights from the Christoffel-Darboux kernel, both run on
    forms of the three-term recurrence that keep their relative accuracy at
    the smallest nodes, so the weights sum to Gamma(a+1) to about 1e-14 even
    for a near -1, where the first weights carry most of the mass.
    The weight recurrence runs only over the nodes whose weight can be
    nonzero.  By the separation theorem (Szego, Orthogonal Polynomials,
    Thm 3.41.1) w_i is below the tail mass beyond x_(i-1), which for
    x > 2(a+1) is below x^a e^-x / (1 - max(a, 0)/x).  The weights after the
    first node where the log of that bound is below LOG_ZERO_WEIGHT (about
    -800) are 0.0, as the full recurrence also gives them.
    """
    if not 2 <= npts <= 4096:
        raise ValueError(f"node count must be in [2, 4096], got {npts}")
    if a <= -1.0:
        raise ValueError(f"Laguerre exponent must exceed -1, got {a}")
    nodes = _laguerre_nodes(npts, a)
    mass = math.exp(math.lgamma(a + 1.0))
    # Separation theorem: w_i < mu((x_(i-1), inf)), the tail of t^a e^-t,
    # which for x > 2(a+1) is below x^a e^-x / (1 - a+/x), a+ = max(a, 0).
    # The log of that bound falls with x, so the nodes whose weight can be
    # nonzero are a prefix: up to and including the first node past the cut.
    first = np.searchsorted(nodes, 2.0 * (a + 1.0), side="right")
    t = nodes[first:]
    log_tail = a * np.log(t) - t - np.log1p(-max(a, 0.0) / t)
    live = min(npts, first + 1 + np.count_nonzero(log_tail >= LOG_ZERO_WEIGHT))
    x = nodes[:live]
    # weights from the Christoffel-Darboux kernel of the orthonormal
    # polynomials: w_i = 1 / sum_k q_k(x_i)^2, with q_k = sigma_k e_k,
    # sigma_k = q_k(0) = sqrt((a+1)_k / (k! mass)) and e_k = L_k^a / L_k^a(0).
    # e runs the recurrence in difference form, from e = 1, F = 0 at x = 0:
    # F_(k+1) = k F_k / (k+a) - x e_k and e_(k+1) = e_k + F_(k+1) / (k+a+1),
    # where F_k = (k+a)(e_k - e_(k-1)).  Extreme nodes grow huge kernel terms
    # (their true weights underflow), so rescale per node and carry the log
    # of the scale.  Each node's arithmetic involves no other node, so
    # cutting the rest leaves every live weight's bits unchanged.
    e = np.ones_like(x)
    f = np.zeros_like(x)
    sigma = 1.0 / math.sqrt(mass)
    kernel = np.full_like(x, sigma * sigma)
    log_scale = np.zeros_like(x)
    scratch = np.empty_like(x)
    for k in range(npts - 1):
        if k:
            f *= k / (k + a)
        np.multiply(x, e, out=scratch)
        f -= scratch
        np.divide(f, k + a + 1.0, out=scratch)
        e += scratch
        sigma *= math.sqrt((k + a + 1.0) / (k + 1.0))
        np.multiply(e, sigma, out=scratch)
        kernel += np.square(scratch, out=scratch)
        if kernel.max() > 1e200:
            big = kernel > 1e200
            e[big] *= 1e-100
            f[big] *= 1e-100
            kernel[big] *= 1e-200
            log_scale[big] -= 100.0 * math.log(10.0)
    weights = np.zeros_like(nodes)
    weights[:live] = np.exp(2.0 * log_scale) / kernel
    return QuadratureRule("laguerre", nodes, weights, alpha=a, measure=mass)


def gauss_hermite(npts: int) -> QuadratureRule:
    """Gauss-Hermite rule for the weight e^{-t^2} on the real line."""
    if not 2 <= npts <= 4096:
        raise ValueError(f"node count must be in [2, 4096], got {npts}")
    x, w = hermgauss(npts)
    return QuadratureRule("hermite", x, w, measure=math.sqrt(math.pi))


def chebyshev_second(npts: int) -> QuadratureRule:
    """Gauss-Chebyshev rule of the second kind: weight sqrt(1-t^2) on [-1, 1].

    Closed-form nodes/weights; this is the natural chi-rule on the 3-sphere
    where the measure is sin^2(chi) d(chi).
    """
    if not 2 <= npts <= 4096:
        raise ValueError(f"node count must be in [2, 4096], got {npts}")
    k = np.arange(1, npts + 1, dtype=float)
    ang = k * math.pi / (npts + 1)
    nodes = np.cos(ang)[::-1]
    weights = (math.pi / (npts + 1)) * np.sin(ang) ** 2
    return QuadratureRule("chebyshev2", nodes, weights[::-1], measure=math.pi / 2.0)


@dataclass(frozen=True)
class ProductAngularRule:
    """Product grid over the 2-sphere: Gauss-Legendre in cos(theta), uniform phi."""

    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray
    phi_weight: float

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.theta_weights)) * self.phi_weight * len(self.phi)


def angular_rule(n_theta: int = 32, n_phi: int = 33) -> ProductAngularRule:
    """Quadrature over the unit sphere with total weight 4*pi."""
    gl = gauss_legendre(n_theta)
    theta = np.arccos(gl.nodes[::-1])
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return ProductAngularRule(theta, gl.weights[::-1], phi, 2.0 * math.pi / n_phi)


@dataclass(frozen=True)
class S3Rule:
    """Product grid over the 3-sphere (chi, theta, phi), total weight 2*pi^2."""

    chi: np.ndarray
    chi_weights: np.ndarray
    sphere: ProductAngularRule


def s3_rule(n_chi: int = 32, n_theta: int = 32, n_phi: int = 33) -> S3Rule:
    cheb = chebyshev_second(n_chi)
    chi = np.arccos(cheb.nodes[::-1])
    return S3Rule(chi, cheb.weights[::-1], angular_rule(n_theta, n_phi))


def radial_hankel(n: int, l: int, p, npts: int = 300):
    """l-wave radial Fourier transform of the hydrogen bound state (n, l).

    Returns (-i)^l sqrt(2/pi) * integral of R_nl(r) j_l(p r) r^2 dr, computed
    with a generalized Gauss-Laguerre rule matched to the bound state's
    exponential decay: substituting r = n*t makes the integrand exactly
    t^(l+2) e^-t times a polynomial times j_l, so the rule with weight
    t^(l+2) e^-t integrates the smooth remainder.
    """
    from . import hydrogen  # local import; hydrogen depends on this module too

    specfun.QuantumNumbers(n, l, 0)  # validates (n, l)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("momentum magnitude must be nonnegative")
    rule = gauss_laguerre(npts, float(l + 2))
    t = rule.nodes
    # R_nl(n t) = N_nl (2t)^l e^-t L_(n-l-1)^(2l+1)(2t); the e^-t and t^l go
    # into the rule's weight, leaving the polynomial part evaluated here.
    poly = hydrogen.normalization(n, l) * 2.0 ** l * specfun.laguerre(
        n - l - 1, 2 * l + 1, 2.0 * t
    )
    pt = np.multiply.outer(p, float(n) * t)
    jl = specfun.spherical_bessel(l, pt)
    integral = np.sum(rule.weights * poly * jl, axis=-1)
    vals = (-1j) ** l * math.sqrt(2.0 / math.pi) * float(n) ** 3 * integral
    return vals if np.ndim(vals) else complex(vals)


def mc_gaussian(dim: int, integrand, samples: int, seed: int = 42):
    """Lattice-rule mean of ``integrand`` under the normalized e^{-|u|^2} measure.

    The density is pi^(-dim/2) e^{-|u|^2}, a normal with variance 1/2 per
    component.  The points are ``ceil(samples / LATTICE_POINTS)``
    independent uniform shifts of the rank-1 Korobov lattice
    (Cranley-Patterson rotation), folded by the tent (baker's) transform and
    mapped through the inverse normal CDF.  So ``samples`` is rounded up to
    whole shifts, and since the error needs two shifts it must exceed
    LATTICE_POINTS.  Each shift is an unbiased estimate; the result is the
    mean of the shift means and the error is their standard deviation over
    sqrt(shifts).  Shifts come from the counter-based Philox generator, so
    results are bit-reproducible for a fixed (seed, samples).  ``integrand``
    is called once per shift, on a (LATTICE_POINTS, dim) array, and may
    return real or complex values; for complex values the error comes from
    the spread of |shift mean - mean|.

    Returns (estimate, stderr): the estimate is a float for real values and
    a complex for complex ones.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    shifts = -(-samples // LATTICE_POINTS)
    if shifts < 2:
        raise ValueError(
            f"need more than {LATTICE_POINTS} samples (two shifts) for an "
            f"error estimate, got {samples}"
        )
    # deferred: importing scipy would dominate the start-up of short commands
    from scipy.special import ndtri
    key = min((d for d in LATTICE_GENERATORS if d >= dim), default=max(LATTICE_GENERATORS))
    gen = np.array([pow(LATTICE_GENERATORS[key], j, LATTICE_POINTS) for j in range(dim)])
    lattice = np.multiply.outer(np.arange(LATTICE_POINTS), gen) % LATTICE_POINTS
    lattice = lattice / LATTICE_POINTS
    rng = np.random.Generator(np.random.Philox(seed))
    means = []
    for shift in rng.random((shifts, dim)):
        # the tent transform 1 - |2 frac(y) - 1| of a shifted point y, in the
        # form 2 |y - rint(y)| that rounds only in forming y
        y = lattice + shift
        y -= np.rint(y)
        u = ndtri(2.0 * np.abs(y)) * math.sqrt(0.5)
        vals = np.asarray(integrand(u))
        if vals.shape != (LATTICE_POINTS,):
            raise ValueError("integrand must map (k, dim) samples to (k,) values")
        means.append(np.mean(vals))
    means = np.array(means)
    mean = np.mean(means).item()
    var = float(np.sum(np.abs(means - mean) ** 2)) / (shifts - 1)
    return mean, math.sqrt(var / shifts)
