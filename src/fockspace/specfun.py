"""Scalar special-function kernels.

Everything here is a pure function of its arguments: associated Laguerre and
Gegenbauer polynomials by three-term recurrence, complex spherical harmonics
with the Condon-Shortley phase, spherical Bessel functions, Wigner 3j symbols
and D-matrices.

Degree ladders
--------------
Series that need every degree up to some M walk one recurrence instead of
restarting it per term.  ``gegenbauer_ladder(a, x)`` yields C_0^(a)(x),
C_1^(a)(x), ... one rung at a time, and ``gegenbauer(m, a, x)`` is its m-th
rung.  The normalized-Legendre ascent yields P-tilde_m^m ... P-tilde_L^m for
one m; ``spherical_harmonic`` keeps its last entry and
``spherical_harmonics(L, theta, phi)`` keeps them all, one ascent per m.
A rung or table entry is bit-equal to the single-degree call, because both
run the same floating-point operations in the same order.

Conventions
-----------
* Laguerre polynomials follow the standard generating function
  sum_k z^k L_k^(a)(x) = (1-z)^(-a-1) exp(-x z/(1-z)).
* Spherical harmonics carry the Condon-Shortley phase and are orthonormal on
  the unit sphere.
* Angular momenta may be half-integers; they are represented internally as
  doubled integers so no floating-point j ever enters a factorial.
* The D-matrix is D^j_{mp,m}(psi, theta, phi) = exp(-i*mp*psi) *
  d^j_{mp,m}(theta) * exp(-i*m*phi), with the sign convention of the small-d
  fixed by the harmonic relation
  D^l_{0,m}(., theta, phi) = sqrt(4*pi/(2l+1)) * conj(Y_lm(theta, phi)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantumNumbers",
    "laguerre",
    "gegenbauer",
    "gegenbauer_ladder",
    "spherical_harmonic",
    "spherical_harmonics",
    "spherical_bessel",
    "wigner_3j",
    "wigner_d_small",
    "wigner_D",
    "wigner_D_su2",
    "euler_su2",
    "spherical_angles",
]

_SQRT4PI = math.sqrt(4.0 * math.pi)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumNumbers:
    """Bound-state labels (n, l, m) with 1 <= n, 0 <= l <= n-1, |m| <= l."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        for label in ("n", "l", "m"):
            value = getattr(self, label)
            if not float(value).is_integer():
                raise ValueError(f"quantum number {label} must be an integer, got {label}={value}")
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got n={self.n}")
        if not 0 <= self.l <= self.n - 1:
            raise ValueError(f"need 0 <= l <= n-1, got (n, l) = ({self.n}, {self.l})")
        if abs(self.m) > self.l:
            raise ValueError(f"need |m| <= l, got (l, m) = ({self.l}, {self.m})")


# ---------------------------------------------------------------------------
# orthogonal polynomials
# ---------------------------------------------------------------------------

def laguerre(k: int, a: float, x):
    """Associated Laguerre polynomial L_k^(a)(x) by upward recurrence.

    Parameters are the degree k >= 0, the superscript a > -1 and the (possibly
    array-valued) argument x.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k}")
    if a <= -1.0:
        raise ValueError(f"Laguerre superscript must exceed -1, got a={a}")
    k = int(k)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + a - x
    for i in range(1, k):
        prev, cur = cur, ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
    return cur if cur.ndim else float(cur)


def gegenbauer(m: int, a: float, x):
    """Gegenbauer (ultraspherical) polynomial C_m^(a)(x).

    The m-th rung of ``gegenbauer_ladder``.  Negative degrees are defined as
    exactly zero, which is the natural convention for the difference
    identities built on top of this routine.
    """
    if m != int(m):
        raise ValueError(f"degree must be an integer, got {m}")
    m = int(m)
    rungs = gegenbauer_ladder(a, x)  # validates a, also for m < 0
    if m < 0:
        out = np.zeros_like(np.asarray(x, dtype=float))
        return out if out.ndim else 0.0
    return next(itertools.islice(rungs, m, None))


def gegenbauer_ladder(a: float, x):
    """Iterator over C_0^(a)(x), C_1^(a)(x), C_2^(a)(x), ... without end.

    Three-term recurrence seeded with C_0 = 1, C_1 = 2 a x; each rung costs
    one step, taken only when the rung is requested.  A scalar x yields
    floats.  An array x yields arrays that the next step still reads, so
    callers must not modify them in place.
    """
    if a <= -0.5:
        raise ValueError(f"Gegenbauer order must exceed -1/2, got a={a}")
    return _gegenbauer_rungs(a, np.asarray(x, dtype=float))


def _gegenbauer_rungs(a: float, x: np.ndarray):
    prev = np.ones_like(x)
    yield prev if prev.ndim else float(prev)
    cur = 2.0 * a * x
    for i in itertools.count(1):
        yield cur if cur.ndim else float(cur)
        prev, cur = cur, (2.0 * x * (i + a) * cur - (i + 2.0 * a - 1.0) * prev) / (i + 1)


# ---------------------------------------------------------------------------
# spherical harmonics and Bessel functions
# ---------------------------------------------------------------------------

def spherical_angles(vec) -> tuple:
    """Spherical coordinates (r, theta, phi) of a cartesian 3-vector.

    theta is the polar angle from the z axis and phi the azimuth in
    (-pi, pi]; the origin gives (0.0, 0.0, 0.0).
    """
    vec = np.asarray(vec, dtype=float)
    scale = 1.0
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(vec))
    if math.isinf(r) and np.all(np.isfinite(vec)):
        # |vec|^2 overflowed: take the angles from vec / max|vec|
        scale = float(np.max(np.abs(vec)))
        vec = vec / scale
        r = float(np.linalg.norm(vec))
    if r == 0.0:
        return 0.0, 0.0, 0.0
    theta = math.acos(min(1.0, max(-1.0, vec[2] / r)))
    phi = math.atan2(vec[1], vec[0])
    return r * scale, theta, phi


def _legendre_column(L: int, m: int, costheta, sintheta):
    """Yield the fully normalized P-tilde_l^m for l = m, m+1, ..., L (m >= 0).

    P-tilde includes the Condon-Shortley phase and the sqrt((2l+1)/(4pi) *
    (l-m)!/(l+m)!) factor, so Y_lm = P-tilde * exp(i m phi).
    """
    # diagonal ascent to (m, m), then upward in l
    pmm = np.full_like(costheta, 1.0 / _SQRT4PI)
    for k in range(1, m + 1):
        pmm = -math.sqrt((2 * k + 1) / (2.0 * k)) * sintheta * pmm
    yield pmm
    if L == m:
        return
    pm1 = math.sqrt(2 * m + 3.0) * costheta * pmm
    yield pm1
    for ll in range(m + 2, L + 1):
        c0 = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        c1 = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, c0 * (costheta * pm1 - c1 * pmm)
        yield pm1


def _legendre_normalized(l: int, m: int, costheta, sintheta):
    """Fully normalized associated Legendre P-tilde_l^m for m >= 0."""
    for p in _legendre_column(l, m, costheta, sintheta):
        pass
    return p


def _harmonic(p, phase, m: int):
    # Y_lm from P-tilde_l^|m| and exp(i |m| phi); Y_l,-m = (-1)^m conj(Y_lm)
    y = p * phase
    if m < 0:
        y = (-1.0) ** -m * np.conjugate(y)
    return y if y.ndim else complex(y)


def spherical_harmonic(l: int, m: int, theta, phi):
    """Complex spherical harmonic Y_lm(theta, phi), Condon-Shortley phase."""
    if l < 0 or l != int(l):
        raise ValueError(f"l must be a nonnegative integer, got {l}")
    if m != int(m):
        raise ValueError(f"m must be an integer, got {m}")
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got (l, m) = ({l}, {m})")
    l, m = int(l), int(m)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    p = _legendre_normalized(l, ma, np.cos(theta), np.sin(theta))
    return _harmonic(p, np.exp(1j * ma * phi), m)


def spherical_harmonics(L: int, theta, phi) -> dict:
    """Every Y_lm(theta, phi) with l <= L, keyed by (l, m).

    One Legendre ascent per |m| serves all degrees, so the table costs
    O(L^2) steps where L^2 separate ``spherical_harmonic`` calls cost O(L^3).
    Each entry equals ``spherical_harmonic(l, m, theta, phi)`` bit for bit.
    """
    if L < 0 or L != int(L):
        raise ValueError(f"L must be a nonnegative integer, got {L}")
    L = int(L)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    costheta, sintheta = np.cos(theta), np.sin(theta)
    table = {}
    for ma in range(L + 1):
        phase = np.exp(1j * ma * phi)
        for l, p in enumerate(_legendre_column(L, ma, costheta, sintheta), start=ma):
            table[l, ma] = _harmonic(p, phase, ma)
            if ma:
                table[l, -ma] = _harmonic(p, phase, -ma)
    return table


def spherical_bessel(l: int, x):
    """Spherical Bessel function j_l(x) for x >= 0.

    Uses the power series near zero, upward recurrence where it is stable
    (x >= l) and Miller's downward recurrence otherwise; j_l(inf) = 0.
    """
    if l < 0 or l != int(l):
        raise ValueError(f"order must be a nonnegative integer, got {l}")
    l = int(l)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    tiny = x < 1e-3
    if np.any(tiny):
        out[tiny] = _bessel_series(l, x[tiny])
    # j_l(x) -> 0 as x -> inf; the recurrences would form sin(inf) / inf
    inf = x == np.inf
    out[inf] = 0.0
    big = ~(tiny | inf)
    if np.any(big):
        xb = x[big]
        res = np.empty_like(xb)
        up = xb >= l
        if np.any(up):
            res[up] = _bessel_upward(l, xb[up])
        if np.any(~up):
            res[~up] = _bessel_downward(l, xb[~up])
        out[big] = res
    return out[0] if scalar else out


def _bessel_series(l: int, x):
    # j_l(x) = x^l/(2l+1)!! * (1 - (x^2/2)/(2l+3) + (x^2/2)^2/(2(2l+3)(2l+5)) - ...)
    dfact = 1.0
    for k in range(1, 2 * l + 2, 2):
        dfact *= k
    h = 0.5 * x * x
    korr = 1.0 - h / (2 * l + 3) * (1.0 - h / (2.0 * (2 * l + 5)))
    return x ** l / dfact * korr


def _bessel_upward(l: int, x):
    # only called with x >= max(1e-3, l) > 0
    j0 = np.sin(x) / x
    if l == 0:
        return j0
    j1 = j0 / x - np.cos(x) / x
    if l == 1:
        return j1
    for n in range(1, l):
        j0, j1 = j1, (2 * n + 1) / x * j1 - j0
    return j1


def _bessel_downward(l: int, x):
    # Miller's algorithm: recur down from a safely high order, then normalize
    # against j_0 = sin(x)/x.
    lstart = l + int(np.ceil(np.sqrt(40.0 * max(l, 1)))) + 15
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    target = np.zeros_like(x)
    for n in range(lstart, 0, -1):
        jp, jc = jc, (2 * n + 1) / x * jc - jp
        # renormalize to dodge overflow
        big = np.abs(jc) > 1e250
        if np.any(big):
            jc = np.where(big, jc * 1e-250, jc)
            jp = np.where(big, jp * 1e-250, jp)
            target = np.where(big, target * 1e-250, target)
        if n - 1 == l:
            target = jc.copy()
    return target * (np.sin(x) / x) / jc


# ---------------------------------------------------------------------------
# angular momentum coupling
# ---------------------------------------------------------------------------

def _two_j(value, name: str) -> int:
    two = int(round(2.0 * value))
    if abs(2.0 * value - two) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {value}")
    return two


def _lnfact(n: int) -> float:
    return math.lgamma(n + 1.0)


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol via the Racah sum with log-factorial stabilization.

    Half-integer arguments are allowed.  Violated selection rules give an
    exact 0.0 rather than an error.
    """
    tj1, tj2, tj3 = (_two_j(j, "j") for j in (j1, j2, j3))
    tm1, tm2, tm3 = (_two_j(m, "m") for m in (m1, m2, m3))
    if tj1 < 0 or tj2 < 0 or tj3 < 0:
        return 0.0
    # parity of (j, m) pairs and m-sum rule
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return 0.0
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2):
        return 0.0
    if (tj1 + tj2 + tj3) % 2:
        return 0.0

    # all the following half-sums are integers once the rules above hold
    jpm1, jmm1 = (tj1 + tm1) // 2, (tj1 - tm1) // 2
    jpm2, jmm2 = (tj2 + tm2) // 2, (tj2 - tm2) // 2
    jpm3, jmm3 = (tj3 + tm3) // 2, (tj3 - tm3) // 2
    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tj2 + tj3) // 2
    c = (-tj1 + tj2 + tj3) // 2
    jsum = (tj1 + tj2 + tj3) // 2

    log_norm = 0.5 * (
        _lnfact(a) + _lnfact(b) + _lnfact(c) - _lnfact(jsum + 1)
        + _lnfact(jpm1) + _lnfact(jmm1) + _lnfact(jpm2) + _lnfact(jmm2)
        + _lnfact(jpm3) + _lnfact(jmm3)
    )

    kmin = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    kmax = min(a, jmm1, jpm2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        log_term = log_norm - (
            _lnfact(k) + _lnfact(a - k) + _lnfact(jmm1 - k) + _lnfact(jpm2 - k)
            + _lnfact((tj3 - tj2 + tm1) // 2 + k) + _lnfact((tj3 - tj1 - tm2) // 2 + k)
        )
        total += (-1.0) ** k * math.exp(log_term)
    phase = (-1.0) ** ((tj1 - tj2 - tm3) // 2)
    return phase * total


def wigner_d_small(j, mp, m, theta):
    """Small Wigner d^j_{mp,m}(theta) by Wigner's sum formula.

    Sign convention: d^j_{mp,m} here equals the transpose of the most common
    tabulation, which is exactly what makes D^l_{0,m} coincide with
    sqrt(4pi/(2l+1)) * conj(Y_lm).
    """
    tj = _two_j(j, "j")
    tmp = _two_j(mp, "mp")
    tm = _two_j(m, "m")
    if abs(tmp) > tj or abs(tm) > tj or (tj + tmp) % 2 or (tj + tm) % 2:
        raise ValueError(f"invalid projection pair (mp, m) = ({mp}, {m}) for j = {j}")
    theta = np.asarray(theta, dtype=float)
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)

    jpmp, jmmp = (tj + tmp) // 2, (tj - tmp) // 2
    jpm, jmm = (tj + tm) // 2, (tj - tm) // 2
    log_norm = 0.5 * (_lnfact(jpmp) + _lnfact(jmmp) + _lnfact(jpm) + _lnfact(jmm))

    kmin = max(0, (tm - tmp) // 2)
    kmax = min(jpm, jmmp)
    out = np.zeros(np.broadcast(c, s).shape, dtype=float)
    for k in range(kmin, kmax + 1):
        log_coef = log_norm - (
            _lnfact(jpm - k) + _lnfact(k) + _lnfact(jmmp - k) + _lnfact((tmp - tm) // 2 + k)
        )
        pc = jpm - k + jmmp - k          # power of cos(theta/2)
        ps = (tmp - tm) // 2 + 2 * k     # power of sin(theta/2)
        out = out + (-1.0) ** k * math.exp(log_coef) * c ** pc * s ** ps
    return out if out.ndim else float(out)


def wigner_D(j, mp, m, psi, theta, phi):
    """Wigner D^j_{mp,m}(psi, theta, phi) = e^{-i mp psi} d^j_{mp,m} e^{-i m phi}."""
    d = wigner_d_small(j, mp, m, theta)
    val = np.exp(-1j * mp * np.asarray(psi)) * d * np.exp(-1j * m * np.asarray(phi))
    return val if np.ndim(val) else complex(val)


def euler_su2(psi, theta, phi) -> np.ndarray:
    """SU(2) matrix whose polynomial representation matches ``wigner_D``."""
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    ep = np.exp(-0.5j * (psi + phi))
    em = np.exp(-0.5j * (psi - phi))
    return np.array([[c * ep, s * em], [-s * np.conj(em), c * np.conj(ep)]])


def wigner_D_su2(j, mp, m, u) -> complex:
    """D^j_{mp,m} of an arbitrary SU(2) (or GL(2)) matrix argument.

    This is the homogeneous-polynomial extension of the D-matrix: for a
    matrix with determinant r it returns r^j times the unit-determinant value,
    consistently with ``wigner_D`` on Euler angles.
    """
    tj = _two_j(j, "j")
    tmp = _two_j(mp, "mp")
    tm = _two_j(m, "m")
    if abs(tmp) > tj or abs(tm) > tj or (tj + tmp) % 2 or (tj + tm) % 2:
        raise ValueError(f"invalid projection pair (mp, m) = ({mp}, {m}) for j = {j}")
    u = np.asarray(u)
    a, b = complex(u[0, 0]), complex(u[0, 1])
    c, d = complex(u[1, 0]), complex(u[1, 1])

    jpmp, jmmp = (tj + tmp) // 2, (tj - tmp) // 2
    jpm, jmm = (tj + tm) // 2, (tj - tm) // 2
    log_norm = 0.5 * (_lnfact(jpmp) + _lnfact(jmmp) + _lnfact(jpm) + _lnfact(jmm))
    kmin = max(0, (tm + tmp) // 2)
    kmax = min(jpmp, jpm)
    total = 0.0 + 0.0j
    for k in range(kmin, kmax + 1):
        q = jpmp - k
        r = jpm - k
        s = k - (tm + tmp) // 2
        log_coef = log_norm - (_lnfact(k) + _lnfact(q) + _lnfact(r) + _lnfact(s))
        total += math.exp(log_coef) * a ** k * b ** q * c ** r * d ** s
    return total

