"""Recursive anticommuting matrix family and its Gaussian determinant identities.

The level-n matrix A_n = sum_i x_i Gamma_i acts on C^(2^(n-1)) with 2n real
parameters (level 1 is the special 2x2 three-parameter case over real
integration variables).  Each level n >= 2 is built one way, by the block
recursion; its Gamma_i is that recursion at the unit vector e_i.  The
Gamma_i with i < 2n square to -I and pairwise anticommute; the last one is
the identity.  ``build_A`` returns A_n as a read-only array.  This
structure forces

    det(I - alpha A_n) = (1 - 2 alpha x_last + alpha^2 |x|^2)^(2^(n-2)),

(exponent 1 at level 1), so the Gaussian average of exp(alpha z^bar.A_n z)
equals the generating function of Gegenbauer polynomials of order 2^(n-2)
evaluated at x_last/|x| — the identity family this module verifies with a
determinant route and an independent Monte Carlo route (a randomly
shifted lattice rule).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quadrature
from .errors import IntegrabilityError, SingularityError
from .specfun import gegenbauer_ladder

__all__ = [
    "GaussianResult",
    "matrix_size",
    "build_A",
    "gammas",
    "relation_residual",
    "det_identity",
    "det_identities",
    "bargmann_closed",
    "gaussian_mc",
    "gegenbauer_series_check",
]

MAX_LEVEL = 6  # 64x64 matrices; the recursion is valid beyond but untested


def matrix_size(n: int) -> int:
    """Side length 2^(n-1) of the level-n matrix."""
    return 1 << (n - 1)


@dataclass(frozen=True)
class GaussianResult:
    """A Gaussian-integral value next to its closed form, never silently."""

    value: complex
    closed_form: complex
    residual: float
    stderr: float | None = None


def _check_level(n: int):
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must be in [1, {MAX_LEVEL}], got {n}")


def _frozen_rows(stack: np.ndarray) -> tuple:
    stack.setflags(write=False)  # and so its rows, shared by every caller of gammas(n)
    return tuple(stack)


# the three 2x2 matrices of level 1, the last one the identity
_LEVEL1_GAMMAS = _frozen_rows(np.array([
    [[0.0, 1j], [1j, 0.0]],
    [[1j, 0.0], [0.0, -1j]],
    [[1.0, 0.0], [0.0, 1.0]],
]))


@lru_cache(maxsize=None)
def _gammas(n: int) -> tuple:
    """The Gammas of level n; from level 2 on, the block recursion at each
    unit vector e_i, with the relations verified exactly on first use."""
    if n == 1:
        return _LEVEL1_GAMMAS
    mats = _frozen_rows(_recursive_entries(n, np.eye(2 * n)))
    if relation_residual(mats) != 0.0:
        raise AssertionError(f"the level-{n} Gammas miss their relations")
    return mats


def relation_residual(mats) -> float:
    """Largest |entry| of Gamma_i^2 + I and of {Gamma_i, Gamma_j}, i < j, over all
    matrices but the last (the identity): 0.0 where the relations hold exactly,
    NaN where an entry is NaN."""
    gens = mats[:-1]
    eye = np.eye(mats[0].shape[0])
    parts = [g @ g + eye for g in gens]
    parts += [gi @ gj + gj @ gi for i, gi in enumerate(gens) for gj in gens[i + 1:]]
    return float(np.max(np.abs(parts)))


def gammas(n: int) -> tuple:
    """The constant matrices Gamma_i = dA_n/dx_i; the last one is the identity.

    Level 1 returns the three 2x2 generators; level n >= 2 returns 2n
    matrices of side 2^(n-1), the block recursion at each unit vector.
    """
    _check_level(n)
    return _gammas(n)


def build_A(n: int, x) -> np.ndarray:
    """The level-n matrix for parameter vector x, as a read-only complex array.

    x has one entry per Gamma: 3 at level 1 and 2n at level n >= 2.  Level 1
    is sum x_i Gamma_i; higher levels come from the block recursion, checked
    to equal that sum exactly, hence A A^dagger = |x|^2 I.
    """
    _check_level(n)
    entries = _entries(n, np.array([float(v) for v in x]))
    entries.setflags(write=False)
    return entries


def _entries(n: int, x: np.ndarray) -> np.ndarray:
    """A_n for each parameter vector along the last axis of ``x``.

    Level 1 is sum x_i Gamma_i; higher levels come from the block recursion,
    checked to equal that sum exactly.
    """
    gam = _gammas(n)
    if x.shape[-1] != len(gam):
        raise ValueError(f"level {n} needs {len(gam)} parameters, got {x.shape[-1]}")
    linear = np.zeros(x.shape[:-1] + gam[0].shape, dtype=complex)
    for i, g in enumerate(gam):  # in place: one stack and one term at a time
        linear += x[..., i, None, None] * g
    if n == 1:
        return linear
    entries = _recursive_entries(n, x)
    if not np.array_equal(entries, linear):
        raise AssertionError("block recursion disagrees with sum x_i Gamma_i")
    return entries


def _recursive_entries(n: int, x) -> np.ndarray:
    # A_n = [[(x_2n + i x_2n-1) I, A_n-1], [-A_n-1^dagger, (x_2n - i x_2n-1) I]]
    # with the 1x1 base A_1 = x_2 + i x_1, for each parameter vector along the
    # last axis of x.
    x = np.asarray(x, dtype=float)
    if n == 1:
        return (x[..., 1] + 1j * x[..., 0])[..., None, None]
    inner = _recursive_entries(n - 1, x[..., : 2 * n - 2])
    s = matrix_size(n - 1)
    out = np.empty(x.shape[:-1] + (2 * s, 2 * s), dtype=complex)
    diagonal = np.arange(s)
    for half, c in ((slice(None, s), x[..., 2 * n - 1] + 1j * x[..., 2 * n - 2]),
                    (slice(s, None), x[..., 2 * n - 1] - 1j * x[..., 2 * n - 2])):
        # the entries of c * I, signed zeros included
        block = out[..., half, half]
        block[...] = (c * 0j)[..., None, None]
        block[..., diagonal, diagonal] = (c * (1 + 0j))[..., None]
    out[..., :s, s:] = inner
    out[..., s:, :s] = -np.conj(np.swapaxes(inner, -1, -2))
    return out


def _squared_norm(x) -> float:
    return sum(v * v for v in x)


def _closed_det(n: int, x, alpha: complex) -> complex:
    base = 1.0 - 2.0 * alpha * x[-1] + alpha ** 2 * _squared_norm(x)
    power = 1 if n == 1 else 1 << (n - 2)
    return complex(base) ** power


def det_identity(n: int, x, alpha: complex) -> GaussianResult:
    """det(I - alpha A_n) by LU against the closed form, with the residual."""
    return next(det_identities(n, [x], [alpha]))


def det_identities(n: int, xs, alphas):
    """``det_identity`` at each row of ``xs`` with its entry of ``alphas``.

    One stacked build makes the level-n matrix of every row, and one LU call
    takes the determinants of the whole stack; the closed form and its check
    stay per row, in Python scalars.  Yields one GaussianResult per row, in
    order.  A row whose closed form vanishes raises SingularityError after
    the rows before it have been yielded.
    """
    _check_level(n)
    xs = np.asarray(xs, dtype=float)
    alphas = np.asarray(alphas)
    if xs.ndim != 2 or alphas.shape != xs.shape[:1]:
        raise ValueError(f"need one row of xs per alpha, got shapes {xs.shape} and {alphas.shape}")
    values = _lu_dets(n, xs, alphas)
    for x, alpha, value in zip(xs.tolist(), alphas.tolist(), values.tolist()):
        closed = _closed_det(n, x, alpha)
        if abs(closed) < 1e-12:
            raise SingularityError("closed-form determinant vanishes at these parameters")
        yield GaussianResult(value, closed, abs(value - closed))


def _lu_dets(n: int, xs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """det(I - alpha A_n) for each row of ``xs`` with its entry of ``alphas``:
    I - alpha A is formed in the buffer of alpha A, and one LU call takes the
    determinants of the whole stack."""
    scaled = alphas[:, None, None] * _entries(n, xs)
    return np.linalg.det(np.subtract(np.eye(scaled.shape[-1]), scaled, out=scaled))


def bargmann_closed(n: int, x, alpha: complex) -> complex:
    """Closed form of the Gaussian average of exp(alpha z^bar.A_n z).

    1/det(I - alpha A_n) for the complex levels n >= 2; the level-1 integral
    runs over real variables, giving det^(-1/2).
    """
    _check_level(n)
    det = complex(_lu_dets(n, np.array([x], dtype=float), np.array([alpha]))[0])
    if abs(det) < 1e-12:
        raise SingularityError("Gaussian closed form has a pole at these parameters")
    if n == 1:
        return 1.0 / cmath.sqrt(det)
    return 1.0 / det


def gaussian_mc(n: int, x, alpha: complex,
                samples: int = quadrature.DEFAULT_SAMPLES,
                seed: int = 42) -> GaussianResult:
    """Lattice-rule Gaussian average of exp(alpha z^bar.A_n z).

    Levels n >= 2 integrate over C^(2^(n-1)) with the normalized measure
    pi^-s e^-|z|^2; level 1 integrates over R^2 with pi^-1 e^-|u|^2.  The
    points and the error come from ``quadrature.mc_gaussian``:
    bit-reproducible for a fixed (seed, samples), with ``samples`` rounded
    up to whole shifts of the lattice and more than one shift.

    The points are drawn from a Gaussian widened by c^2 = (1 + g)/(1 - g),
    g = |alpha| |x|, and reweighted by the ratio of the two densities.
    Since A_n^dagger A_n = |x|^2 I, the integrand grows at most like
    e^{g|z|^2}; the reweighted one decays like e^{-g|w|^2}.  Without the
    reweighting, the growth puts much of the mean in the few lattice points
    nearest the faces of the unit cube, so the shift means are skewed, and a
    run that misses those points is low with a small spread.
    """
    x = [float(v) for v in x]
    a = build_A(n, x)
    growth = abs(alpha) * math.sqrt(_squared_norm(x))
    if growth >= 1.0:
        raise IntegrabilityError(
            f"need |alpha| * |x| < 1 for integrability, got {growth}"
        )
    closed = bargmann_closed(n, x, alpha)
    size = a.shape[0]
    dim = 2 if n == 1 else 2 * size
    widen = (1.0 + growth) / (1.0 - growth)
    # z = c w with w ~ e^-|w|^2 and c^2 = widen:
    #   E[f(z)] = E[c^dim e^{-(c^2 - 1)|w|^2} f(c w)]
    coeff = alpha * widen
    log_jacobian = 0.5 * dim * math.log(widen)
    # the quadratic form summed over the nonzero entries of A_n: at these
    # sizes a matrix product costs several times more, and may run
    # multithreaded BLAS
    terms = [(i, j, a[i, j]) for i, j in zip(*np.nonzero(a))]

    def integrand(u):
        if n == 1:  # real variables
            z = zbar = u
        else:
            # each row is one point of C^size: its real parts, then its
            # imaginary parts, so that the lattice structure carries over to z
            z = u[:, :size] + 1j * u[:, size:]
            zbar = np.conj(z)
        quad = sum(aij * zbar[:, i] * z[:, j] for i, j, aij in terms)
        return np.exp(coeff * quad - (widen - 1.0) * np.einsum("ki,ki->k", u, u) + log_jacobian)

    mean, stderr = quadrature.mc_gaussian(dim, integrand, samples, seed)
    return GaussianResult(mean, closed, abs(mean - closed), stderr)


def gegenbauer_series_check(n: int, x, alpha: complex, terms: int) -> float:
    """|closed form - truncated Gegenbauer series|.

    The series is sum_m alpha^m |x|^m C_m^(e)(x_last/|x|) with order
    e = 1/2 at level 1 and 2^(n-2) at level n >= 2; it converges when
    |alpha| (|x_last| + |x|) < 1.
    """
    x = [float(v) for v in x]
    closed = bargmann_closed(n, x, alpha)
    if terms <= 0:
        return abs(closed)
    norm = math.sqrt(_squared_norm(x))
    order = 0.5 if n == 1 else float(1 << (n - 2))
    if norm == 0.0:
        series = 1.0 + 0.0j  # only the constant term survives
    else:
        arg = x[-1] / norm
        series = sum(
            (alpha * norm) ** m * c
            for m, c in zip(range(terms), gegenbauer_ladder(order, arg))
        )
    return abs(closed - series)
