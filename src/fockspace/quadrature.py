"""Deterministic quadrature engines and the seeded lattice-rule integrator.

Gauss-Legendre and Gauss-Hermite rules come from numpy; generalized
Gauss-Laguerre rules are built here with numpy alone: Halley iteration on
the three-term recurrence from asymptotic starts gives the nodes, and the
Christoffel-Darboux kernel gives the weights.  This module wraps them
behind a small immutable rule type, adds the product rules for angular and
3-sphere integrals, the quadrature oracles of hydrogen's closed forms (the
radial Hankel transform, the radial overlap and the momentum norm), and a
randomly shifted rank-1 lattice estimator of Gaussian averages, its points
mapped to the Gaussian by a numpy inverse normal CDF (Wichura's AS241).
The estimator takes real or complex integrands; it is the one
``clifford.gaussian_mc`` and the Monte Carlo route of ``quadmaps.ks_integral`` use.

Legendre and Laguerre rules are cached per process (bounded LRU); sharing
one instance between callers is safe because rules are frozen and their
arrays read-only.  A Laguerre rule holds only the nodes whose weight is
nonzero, and ``rule_sum`` sums a rule's terms with the bits of the sum over
all npts nodes.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from . import hydrogen, specfun
from .errors import ConvergenceError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_laguerre",
    "gauss_hermite",
    "chebyshev_second",
    "rule_sum",
    "ProductRule",
    "s3_rule",
    "radial_hankel",
    "radial_overlap",
    "momentum_norm",
    "mc_gaussian",
    "BLOCK_ROWS",
    "LATTICE_POINTS",
    "LATTICE_GENERATORS",
    "DEFAULT_SAMPLES",
    "LOG_ZERO_WEIGHT",
    "MIN_NODES",
    "MAX_NODES",
]

# The node counts every rule accepts, and with them ``--nodes``.
MIN_NODES, MAX_NODES = 2, 4096
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
# Nodes past the estimated last live one that gauss_laguerre polishes; the
# phase count of the live prefix is good to about one node.
_LIVE_MARGIN = 4
# Wichura's AS241 (PPND16, Applied Statistics 37, 1988, 477-484): the
# inverse normal CDF as a rational function of degree 7/7 in each of three
# regions, relative error about 1e-16.  Coefficients lowest order first; the
# central pair is in r = 0.180625 - q^2 with q = p - 1/2, the tail pairs in
# s - 1.6 and s - 5 with s = sqrt(-log(min(p, 1 - p))).
_AS241_CENTRAL = (
    (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
     1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
     3.3430575583588128105e4, 2.5090809287301226727e3),
    (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
     2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
     5.2264952788528545610e3),
)
_AS241_NEAR = (
    (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
     3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
     2.27238449892691845833e-2, 7.74545014278341407640e-4),
    (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
     1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
     2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
     7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
     2.04426310338993978564e-15),
)


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable 1-D nodes/weights with the measure they integrate against.

    ``measure`` is the total weight of the domain, used as a
    construction-time sanity check.
    """

    nodes: np.ndarray
    weights: np.ndarray
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


def _check_nodes(npts: int):
    if not MIN_NODES <= npts <= MAX_NODES:
        raise ValueError(f"node count must be in [{MIN_NODES}, {MAX_NODES}], got {npts}")


@functools.lru_cache(maxsize=32)
def gauss_legendre(npts: int) -> QuadratureRule:
    """Gauss-Legendre rule on [-1, 1], exact through degree 2*npts - 1."""
    _check_nodes(npts)
    x, w = leggauss(npts)
    return QuadratureRule(x, w, measure=2.0)


def _laguerre_span(npts: int, a: float) -> tuple:
    # nu, and the width D = x+ - x- and start x- of the oscillatory span of
    # _laguerre_nodes
    nu = 4.0 * npts + 2.0 * a + 2.0
    width = math.sqrt(nu * nu - 4.0 * a * a)  # D = x+ - x-
    low = 2.0 * a * a / (nu + width)  # x-, without the cancellation of nu - D
    return nu, width, low


def _laguerre_phase(theta, a: float, nu: float, width: float, low: float):
    # the Liouville-Green phase of _laguerre_nodes at the angle theta
    x = low + width * np.sin(theta) ** 2
    return 0.25 * width * np.sin(2.0 * theta) + 0.5 * nu * theta - 0.5 * a * (
        np.arcsin(np.clip((nu - 2.0 * a * a / x) / width, -1.0, 1.0)) + 0.5 * math.pi)


def _laguerre_nodes(npts: int, a: float, first: int = 0, stop: int | None = None) -> np.ndarray:
    """Zeros first..stop-1 (from 0, default all) of L_npts^a in increasing
    order, without an eigensolver.

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
    No node's bisection or Halley arithmetic involves another node, so a
    range has the bits of the same entries of the full set.
    """
    stop = npts if stop is None else stop
    if stop <= first:
        return np.empty(0)
    nu, width, low = _laguerre_span(npts, a)
    target = (np.arange(first + 1, stop + 1) - 0.25) * math.pi
    lo, hi = np.zeros(target.size), np.full(target.size, 0.5 * math.pi)
    for _ in range(_START_HALVINGS):
        theta = 0.5 * (lo + hi)
        below = _laguerre_phase(theta, a, nu, width, low) < target
        lo = np.where(below, theta, lo)
        hi = np.where(below, hi, theta)
    x = low + width * np.sin(0.5 * (lo + hi)) ** 2
    moving = np.arange(target.size)
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


def _laguerre_live_estimate(npts: int, a: float) -> int:
    """Nodes to polish so that the live prefix (see ``gauss_laguerre``) is
    inside them: the zeros below the cut x_c where the log of the tail
    bound reaches LOG_ZERO_WEIGHT, counted by the Liouville-Green phase at
    x_c, plus the first node past it and _LIVE_MARGIN more."""
    x_cut = -LOG_ZERO_WEIGHT
    for _ in range(4):  # x = a log x - log1p(-a+/x) - LOG_ZERO_WEIGHT contracts
        x_cut = a * math.log(x_cut) - math.log1p(-max(a, 0.0) / x_cut) - LOG_ZERO_WEIGHT
    nu, width, low = _laguerre_span(npts, a)
    # the phase at x+ (theta = pi/2) is (n + 1/2) pi, so a cut past x+ counts n
    theta = math.asin(math.sqrt(min(max(x_cut - low, 0.0) / width, 1.0)))
    below = math.floor(float(_laguerre_phase(theta, a, nu, width, low)) / math.pi + 0.25)
    return min(npts, below + 1 + _LIVE_MARGIN)


def _laguerre_live_count(nodes: np.ndarray, a: float) -> int:
    # Separation theorem: w_i < mu((x_(i-1), inf)), the tail of t^a e^-t,
    # which for x > 2(a+1) is below x^a e^-x / (1 - a+/x), a+ = max(a, 0).
    # The log of that bound falls with x, so the nodes whose weight can be
    # nonzero are a prefix: up to and including the first node past the cut.
    # Of a prefix of the nodes that holds no node past the cut, this count
    # is more than its length.
    first = np.searchsorted(nodes, 2.0 * (a + 1.0), side="right")
    t = nodes[first:]
    log_tail = a * np.log(t) - t - np.log1p(-max(a, 0.0) / t)
    return int(first + 1 + np.count_nonzero(log_tail >= LOG_ZERO_WEIGHT))


@functools.lru_cache(maxsize=32)
def gauss_laguerre(npts: int, a: float = 0.0) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight t^a e^-t on (0, inf),
    holding the nodes of the npts-node rule whose weight can be nonzero.

    The nodes come from ``_laguerre_nodes`` (asymptotic starts, Halley
    polish) and the weights from the Christoffel-Darboux kernel, both run on
    forms of the three-term recurrence that keep their relative accuracy at
    the smallest nodes, so the weights sum to Gamma(a+1) to about 1e-14 even
    for a near -1, where the first weights carry most of the mass.
    By the separation theorem (Szego, Orthogonal Polynomials, Thm 3.41.1)
    w_i is below the tail mass beyond x_(i-1), which for x > 2(a+1) is below
    x^a e^-x / (1 - max(a, 0)/x).  The weights after the first node where
    the log of that bound is below LOG_ZERO_WEIGHT (about -800) are 0.0, so
    the rule stops at that node: the nodes up to it, with their weights, are
    the first entries of the npts-node rule bit for bit, and carry its
    measure.  Their count, read off the Liouville-Green phase, is checked on
    the polished nodes, and the prefix grows until it holds the cut.  Sum a
    rule's terms with ``rule_sum`` to get the npts-node rule's bits.
    """
    _check_nodes(npts)
    if a <= -1.0:
        raise ValueError(f"Laguerre exponent must exceed -1, got {a}")
    try:
        mass = math.exp(math.lgamma(a + 1.0))
    except OverflowError:
        raise ValueError(
            f"the measure Gamma(a+1) leaves the double range for a = {a}"
        ) from None
    stop = _laguerre_live_estimate(npts, a)
    nodes = _laguerre_nodes(npts, a, 0, stop)
    live = _laguerre_live_count(nodes, a)
    while stop < npts and live > stop:
        grown = min(npts, 2 * stop + 1)
        nodes = np.concatenate((nodes, _laguerre_nodes(npts, a, stop, grown)))
        stop = grown
        live = _laguerre_live_count(nodes, a)
    x = nodes[:min(npts, live)]
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
    return QuadratureRule(x, np.exp(2.0 * log_scale) / kernel, measure=mass)


def rule_sum(terms: np.ndarray, npts: int):
    """Sum over the last axis of an npts-node rule's terms, given at the
    nodes of ``gauss_laguerre(npts, a)`` only: the other terms are 0.0, and
    summing them as zeros keeps numpy's pairwise order, so the sum has the
    bits of the sum over all npts nodes."""
    full = np.zeros(terms.shape[:-1] + (npts,), dtype=terms.dtype)
    full[..., :terms.shape[-1]] = terms
    return np.sum(full, axis=-1)


def gauss_hermite(npts: int) -> QuadratureRule:
    """Gauss-Hermite rule for the weight e^{-t^2} on the real line."""
    _check_nodes(npts)
    x, w = hermgauss(npts)
    return QuadratureRule(x, w, measure=math.sqrt(math.pi))


def chebyshev_second(npts: int) -> QuadratureRule:
    """Gauss-Chebyshev rule of the second kind: weight sqrt(1-t^2) on [-1, 1].

    Closed-form nodes/weights; this is the natural chi-rule on the 3-sphere
    where the measure is sin^2(chi) d(chi).
    """
    _check_nodes(npts)
    k = np.arange(1, npts + 1, dtype=float)
    ang = k * math.pi / (npts + 1)
    nodes = np.cos(ang)[::-1]
    weights = (math.pi / (npts + 1)) * np.sin(ang) ** 2
    return QuadratureRule(nodes, weights[::-1], measure=math.pi / 2.0)


@dataclass(frozen=True)
class ProductRule:
    """Product grid: ``nodes`` holds the axis arrays in grid order, shaped to
    broadcast, and ``weights`` the product weight at every grid point."""

    nodes: tuple
    weights: np.ndarray


def s3_rule(n_chi: int = 32, n_theta: int = 32, n_phi: int = 33) -> ProductRule:
    """Product rule over the unit 3-sphere, axes (chi, theta, phi), with the
    sin^2(chi) measure in the Chebyshev chi rule; weights sum to 2 pi^2."""
    cheb = chebyshev_second(n_chi)
    gl = gauss_legendre(n_theta)  # in cos(theta)
    chi, theta = np.arccos(cheb.nodes[::-1]), np.arccos(gl.nodes[::-1])
    w_theta = gl.weights[::-1]
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)
    # (chi weight * theta weight) * phi weight: one association, one set of bits
    return ProductRule((chi[:, None, None], theta[None, :, None], phi[None, None, :]),
                       cheb.weights[::-1, None, None] * w_theta[None, :, None] * w_phi)


def radial_hankel(n: int, l: int, p, npts: int = 300):
    """l-wave radial Fourier transform of the hydrogen bound state (n, l).

    Returns (-i)^l sqrt(2/pi) * integral of R_nl(r) j_l(p r) r^2 dr, computed
    with a generalized Gauss-Laguerre rule matched to the bound state's
    exponential decay: substituting r = n*t makes the integrand exactly
    t^(l+2) e^-t times a polynomial times j_l, so the rule with weight
    t^(l+2) e^-t integrates the smooth remainder.  Only the rule's nodes
    with a nonzero weight are built and evaluated; the sum has the bits of
    the full npts-node rule's, and where the Laguerre polynomial overflows
    at a far node of zero weight (as at (n, l) = (120, 0) with 4096 nodes)
    that node adds nothing, not the NaN of 0 * inf.

    Raises ``ValueError`` for l >= 169, where the rule's measure Gamma(l+3)
    overflows, and ``OverflowError`` where the normalization N_nl is below
    the smallest normal double (subnormal or 0.0, as at (n, l) = (200, 140),
    (200, 150) or (161, 160)): the sum would come out 0 or wrong in its
    leading digits.
    """
    specfun.QuantumNumbers(n, l, 0)  # validates (n, l)
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("momentum magnitude must be nonnegative")
    rule = gauss_laguerre(npts, float(l + 2))
    norm = hydrogen.normalization(n, l)
    if norm < sys.float_info.min:
        raise OverflowError(
            f"the normalization of (n, l) = ({n}, {l}) is {norm!r}, below the "
            "smallest normal double"
        )
    t = rule.nodes
    # R_nl(n t) = N_nl (2t)^l e^-t L_(n-l-1)^(2l+1)(2t); the e^-t and t^l go
    # into the rule's weight, leaving the polynomial part evaluated here.
    poly = norm * 2.0 ** l * specfun.laguerre(
        n - l - 1, 2 * l + 1, 2.0 * t
    )
    pt = np.multiply.outer(p, float(n) * t)
    jl = specfun.spherical_bessel(l, pt)
    integral = rule_sum(rule.weights * poly * jl, npts)
    vals = (-1j) ** l * math.sqrt(2.0 / math.pi) * float(n) ** 3 * integral
    return vals if np.ndim(vals) else complex(vals)


def radial_overlap(n1: int, n2: int, l: int, npts: int = 200) -> float:
    """Overlap integral of R_(n1,l) and R_(n2,l) with the r^2 measure.

    Substituting t = (1/n1 + 1/n2) r turns the integrand into a polynomial
    times the generalized Laguerre weight t^(2l+2) e^-t, so the quadrature
    is exact up to roundoff.  Equals delta_(n1,n2) for true bound states.
    As in ``radial_hankel``, only the rule's nodes with a nonzero weight
    are built and evaluated, and the sum has the full rule's bits.
    """
    specfun.QuantumNumbers(n1, l, 0)
    specfun.QuantumNumbers(n2, l, 0)
    d1, d2 = 1.0 / n1, 1.0 / n2
    s = d1 + d2
    rule = gauss_laguerre(npts, float(2 * l + 2))
    t = rule.nodes
    poly = (
        hydrogen.normalization(n1, l) * hydrogen.normalization(n2, l)
        * (2.0 * d1 / s) ** l * (2.0 * d2 / s) ** l
        * specfun.laguerre(n1 - l - 1, 2 * l + 1, 2.0 * d1 * t / s)
        * specfun.laguerre(n2 - l - 1, 2 * l + 1, 2.0 * d2 * t / s)
    )
    return float(rule_sum(rule.weights * poly, npts)) / s ** 3


def momentum_norm(n: int, l: int, npts: int = 200) -> float:
    """Norm integral of the momentum radial factor: int |F(p)|^2 p^2 dp.

    Uses the stereographic substitution p = delta tan(chi/2), which maps the
    rational integrand onto a smooth function of chi in (0, pi); equals 1 for
    a normalized state.
    """
    specfun.QuantumNumbers(n, l, 0)
    delta = 1.0 / n
    rule = gauss_legendre(npts)
    chi = 0.5 * math.pi * (rule.nodes + 1.0)
    w = 0.5 * math.pi * rule.weights
    p = delta * np.tan(0.5 * chi)
    dp = 0.5 * delta / np.cos(0.5 * chi) ** 2
    f = hydrogen.radial_momentum(n, l, p)
    return float(np.sum(w * np.abs(f) ** 2 * p ** 2 * dp))


def _rational(coeffs, r: np.ndarray) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, in place on two fresh arrays."""
    num, den = coeffs
    top, bot = np.full_like(r, num[-1]), np.full_like(r, den[-1])
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top *= r
        top += a
        bot *= r
        bot += b
    return np.divide(top, bot, out=top)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF by AS241, elementwise on a float array.

    The central rational runs on the whole array; the tail rationals only on
    the points with |p - 1/2| > 0.425 (15% of uniform points).  p = 0 and 1
    map to -inf and +inf, and p outside [0, 1] or NaN to NaN, as
    ``scipy.special.ndtri`` gives them.
    """
    q = p - 0.5
    x = _rational(_AS241_CENTRAL, 0.180625 - q * q)
    x *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        qt = q.reshape(-1)[tail]
        pt = p.reshape(-1)[tail]
        # min(p, 1 - p) from p itself: q = p - 1/2 rounds for p < 1/4
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
            xt = _rational(_AS241_NEAR, s - 1.6)
            far = np.flatnonzero(s > 5.0)  # p below e^-25, about 1e-11
            if far.size:
                xt[far] = _rational(_AS241_FAR, s[far] - 5.0)
        xt[np.isinf(s)] = np.inf
        x.reshape(-1)[tail] = np.copysign(xt, qt)
    return x


def mc_gaussian(dim: int, integrand, samples: int, seed: int = 42):
    """Lattice-rule mean of ``integrand`` under the normalized e^{-|u|^2} measure.

    The density is pi^(-dim/2) e^{-|u|^2}, a normal with variance 1/2 per
    component.  The points are ``ceil(samples / LATTICE_POINTS)``
    independent uniform shifts of the rank-1 Korobov lattice
    (Cranley-Patterson rotation), folded by the tent (baker's) transform and
    mapped through the inverse normal CDF, evaluated with numpy alone by
    Wichura's AS241 rationals (``_ndtri``, to 2e-15 relative of
    ``scipy.special.ndtri`` from p = 1e-300 to 1 - 1e-16, so no point is
    reweighted and each shift stays unbiased).  So ``samples`` is rounded up to
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
        np.abs(y, out=y)
        y *= 2.0
        u = _ndtri(y)
        u *= math.sqrt(0.5)
        vals = np.asarray(integrand(u))
        if vals.shape != (LATTICE_POINTS,):
            raise ValueError("integrand must map (k, dim) samples to (k,) values")
        means.append(np.mean(vals))
    means = np.array(means)
    mean = np.mean(means).item()
    var = float(np.sum(np.abs(means - mean) ** 2)) / (shifts - 1)
    return mean, math.sqrt(var / shifts)
