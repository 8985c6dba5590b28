"""Deterministic quadrature engines and the seeded lattice-rule integrator.

Gauss-Legendre and Gauss-Hermite rules come from numpy; generalized
Gauss-Laguerre rules are built here by Golub-Welsch, with scipy's
tridiagonal eigensolver imported only when the first one is built.  This
module wraps them behind a small immutable rule type, adds the product
rules used for angular and 3-sphere integrals, the radial Hankel transform
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


@functools.lru_cache(maxsize=32)
def gauss_laguerre(npts: int, a: float = 0.0) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight t^a e^-t on (0, inf).

    Built by Golub-Welsch (symmetric tridiagonal Jacobi eigenproblem), which
    stays finite for any node count, unlike recurrence-evaluated weights.
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
    # deferred: importing scipy would dominate the start-up of short commands
    from scipy.linalg import eigh_tridiagonal
    k = np.arange(npts, dtype=float)
    diag = 2.0 * k + a + 1.0
    off = np.sqrt(k[1:] * (k[1:] + a))
    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
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
    # polynomials: w_i = 1 / sum_k q_k(x_i)^2.  Extreme nodes grow huge
    # kernel terms (their true weights underflow), so rescale per node and
    # carry the log of the scale.  Each node's arithmetic involves no other
    # node, so cutting the rest leaves every live weight's bits unchanged.
    q_prev = np.zeros_like(x)
    q_cur = np.full_like(x, 1.0 / math.sqrt(mass))
    kernel = q_cur ** 2
    log_scale = np.zeros_like(x)
    scratch = np.empty_like(x)
    for i in range(npts - 1):
        b_cur = off[i - 1] if i > 0 else 0.0
        # q_next = ((x - diag_i) q_cur - b_cur q_prev) / b_next, into q_prev
        np.subtract(x, diag[i], out=scratch)
        np.multiply(scratch, q_cur, out=scratch)
        np.multiply(q_prev, b_cur, out=q_prev)
        np.subtract(scratch, q_prev, out=q_prev)
        np.divide(q_prev, off[i], out=q_prev)
        q_prev, q_cur = q_cur, q_prev
        kernel += np.square(q_cur, out=scratch)
        np.abs(q_cur, out=scratch)
        if scratch.max() > 1e100:
            big = scratch > 1e100
            q_cur[big] *= 1e-100
            q_prev[big] *= 1e-100
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
