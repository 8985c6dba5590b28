"""Quadratic norm-preserving maps R^2->R^2, R^4->R^3, R^8->R^5.

All three maps square the norm: |image| = |preimage|^2.  The 4->3 map is
fibered by a circle (the psi angle of the Cayley-Klein parameterization);
lifting a 3-D integral through it picks up a |u|^2 weight:

    integral f d^3r = (4/pi) * integral f(map(u)) |u|^2 d^4u,

which ``ks_integral`` evaluates by product Gauss-Hermite quadrature or by
the seeded, randomly shifted lattice rule under the Gaussian measure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import quadrature

__all__ = [
    "levi_civita",
    "ks_map",
    "cayley_klein",
    "ks_fiber_angle",
    "hurwitz_map",
    "ks_integral",
    "KSIntegralResult",
]


def levi_civita(u):
    """R^2 -> R^2 quadratic map: (2 u1 u2, u1^2 - u2^2) with radius u1^2+u2^2."""
    u = np.asarray(u, dtype=float)
    u1, u2 = u[..., 0], u[..., 1]
    xp = 2.0 * u1 * u2
    yp = u1 ** 2 - u2 ** 2
    rp = u1 ** 2 + u2 ** 2
    return xp, yp, rp


def ks_map(u):
    """R^4 -> R^3 quadratic map and the squared norm r = |u|^2.

    x = 2(u1 u3 + u2 u4), y = 2(u1 u4 - u2 u3), z = u1^2+u2^2-u3^2-u4^2.
    Accepts shape (..., 4); returns (xyz of shape (..., 3), r of shape (...)).
    """
    u = np.asarray(u, dtype=float)
    u1, u2, u3, u4 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    xyz = np.stack(
        [
            2.0 * (u1 * u3 + u2 * u4),
            2.0 * (u1 * u4 - u2 * u3),
            u1 ** 2 + u2 ** 2 - u3 ** 2 - u4 ** 2,
        ],
        axis=-1,
    )
    r = np.sum(u * u, axis=-1)
    return xyz, r


def cayley_klein(r: float, theta: float, phi: float, psi: float) -> np.ndarray:
    """Preimage of the spherical point (r, theta, phi) with fiber angle psi.

    z1 = u1 + i u2 = sqrt(r) cos(theta/2) e^{i(psi-phi)/2},
    z2 = u3 + i u4 = sqrt(r) sin(theta/2) e^{i(psi+phi)/2}.

    The phase difference arg(z2) - arg(z1) is the azimuth (since
    x + i y = 2 conj(z1) z2) and the common phase is the fiber angle, so
    ks_map of the result is (r sin(theta) cos(phi), r sin(theta) sin(phi),
    r cos(theta)) for every psi.
    """
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    sq = math.sqrt(r)
    z1 = sq * math.cos(0.5 * theta) * np.exp(0.5j * (psi - phi))
    z2 = sq * math.sin(0.5 * theta) * np.exp(0.5j * (psi + phi))
    return np.array([z1.real, z1.imag, z2.real, z2.imag])


def ks_fiber_angle(u) -> float:
    """Local fiber coordinate of a 4-space point: half the phase sum of (z1, z2).

    This coordinate advances at unit rate along the circle action
    (z1, z2) -> (e^(i tau) z1, e^(i tau) z2) that ks_map quotients out, which
    makes |det d(x, y, z, fiber)/du| = 8 |u|^2.  It relates to the
    ``cayley_klein`` parameter as psi/2 (mod pi): the psi there is the
    double-cover (Euler-style) angle.
    """
    u = np.asarray(u, dtype=float)
    z1 = u[0] + 1j * u[1]
    z2 = u[2] + 1j * u[3]
    return 0.5 * float(np.angle(z1 * z2))


def hurwitz_map(u):
    """R^8 -> R^5 quadratic map and the squared norm r = r1 + r2.

    With z1..z4 the consecutive complex pairs of u:
    x1 + i x2 = 2(conj(z1) z3 + z2 conj(z4)),
    x3 + i x4 = 2(conj(z1) z4 - z2 conj(z3)),
    x5 = r1 - r2.
    Accepts shape (..., 8); returns (x of shape (..., 5), r of shape (...)).
    """
    u = np.asarray(u, dtype=float)
    z1 = u[..., 0] + 1j * u[..., 1]
    z2 = u[..., 2] + 1j * u[..., 3]
    z3 = u[..., 4] + 1j * u[..., 5]
    z4 = u[..., 6] + 1j * u[..., 7]
    w12 = 2.0 * (np.conj(z1) * z3 + z2 * np.conj(z4))
    w34 = 2.0 * (np.conj(z1) * z4 - z2 * np.conj(z3))
    r1 = np.abs(z1) ** 2 + np.abs(z2) ** 2
    r2 = np.abs(z3) ** 2 + np.abs(z4) ** 2
    x = np.stack([w12.real, w12.imag, w34.real, w34.imag, r1 - r2], axis=-1)
    return x, r1 + r2


class KSIntegralResult(NamedTuple):
    value: float
    error: float
    method: str


def _lifted_values(f, u):
    xyz, r = ks_map(u)
    return np.asarray(f(xyz), dtype=float) * r * np.exp(r)


def ks_integral(
    f,
    rule: "quadrature.QuadratureRule | None" = None,
    *,
    method: str = "quadrature",
    samples: int = quadrature.DEFAULT_SAMPLES,
    seed: int = 42,
) -> KSIntegralResult:
    """Integrate a scalar field over R^3 through the 4-space lift.

    ``f`` must accept an (..., 3) array of cartesian points and return (...)
    values, and must decay at least as fast as a Gaussian in |r| for the
    lifted integrand to be tame.

    method="quadrature": product Gauss-Hermite after factoring e^{-|u|^2};
    the reported error compares against the half-size rule.
    method="mc": the randomly shifted lattice rule of
    ``quadrature.mc_gaussian``, bit-reproducible for a fixed (seed, samples);
    ``samples`` is rounded up to whole shifts of the lattice and must exceed
    one shift.  The reported error is the standard error over the shifts.
    """
    if method == "quadrature":
        base = rule if rule is not None else quadrature.gauss_hermite(28)
        value = _hermite_lift(f, base)
        check = _hermite_lift(f, quadrature.gauss_hermite(max(6, len(base.nodes) // 2)))
        return KSIntegralResult(value, abs(value - check), "quadrature")
    if method == "mc":
        est, err = quadrature.mc_gaussian(4, lambda u: _lifted_values(f, u), samples, seed)
        return KSIntegralResult(4.0 * math.pi * est, 4.0 * math.pi * err, "mc")
    raise ValueError(f"method must be 'quadrature' or 'mc', got {method!r}")


# exp(r) overflows at far mesh points, where the weight underflows (inf * 0,
# or inf times a subnormal); those blocks recompute the non-finite terms with
# the log of the weight folded into exp(r)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _hermite_lift(f, rule: "quadrature.QuadratureRule") -> float:
    t, w = rule.nodes, rule.weights
    npts = len(t)
    # Walk the npts^4 product mesh in blocks of at most BLOCK_ROWS points, so
    # the working set is the same at any node count: the mesh of the last
    # `inner` axes is built once, and each block pairs it with as many points
    # of the leading axes as fit.
    inner = 1
    while inner < 3 and npts ** (inner + 1) <= quadrature.BLOCK_ROWS:
        inner += 1
    outer = 4 - inner
    size = npts ** inner
    per_block = quadrature.BLOCK_ROWS // size
    block = np.empty((per_block * size, 4))
    mesh = np.meshgrid(*[t] * inner, indexing="ij")
    block[:, outer:] = np.tile(np.stack([m.ravel() for m in mesh], axis=-1), (per_block, 1))
    wmesh = np.meshgrid(*[w] * inner, indexing="ij")
    inner_w = np.tile(np.prod(wmesh, axis=0).ravel(), per_block)
    total = 0.0
    for start in range(0, npts ** outer, per_block):
        idx = np.unravel_index(
            np.arange(start, min(start + per_block, npts ** outer)), (npts,) * outer
        )
        rows = len(idx[0]) * size
        block[:rows, :outer] = np.repeat(np.stack([t[i] for i in idx], axis=-1), size, axis=0)
        weight = np.repeat(np.prod([w[i] for i in idx], axis=0), size) * inner_w[:rows]
        terms = weight * _lifted_values(f, block[:rows])
        # not a BLAS dot, whose summation order follows the BLAS thread count
        part = float(np.sum(terms))
        if not math.isfinite(part):
            far = ~np.isfinite(terms)
            xyz, r = ks_map(block[:rows][far])
            terms[far] = np.asarray(f(xyz), dtype=float) * r * np.exp(r + np.log(weight[far]))
            part = float(np.sum(terms))
        total += part
    return 4.0 / math.pi * total
