"""Reference values that do not come from fockspace.

Position space uses sympy's hydrogen functions (``R_nl``, ``Psi_nlm``);
momentum space uses the Podolsky-Pauling closed form evaluated in mpmath;
the Gegenbauer polynomial is mpmath's and the Fock map is its defining
formula in mpmath arithmetic.  Every function returns a modulus as a float:
the benchmark compares moduli because the i^l phase of the momentum
wavefunction is a documented convention, not an output to pin.
"""

from __future__ import annotations

import mpmath as mp
import sympy
from sympy.physics.hydrogen import Psi_nlm, R_nl

DPS = 30
mp.mp.dps = DPS

REL_TOL = 1e-10
# The radial Hankel oracle is a quadrature of an oscillatory integrand; at the
# momenta the sweep uses (p <= 1.5/n) it agrees with the closed form to ~1e-11.
HANKEL_REL_TOL = 1e-9
# Moduli below this are not comparable in double precision.
ABS_FLOOR = 1e-14
# Table entries are compared relative to this share of the table's largest
# entry at least, because an entry near a node has no relative accuracy.
TABLE_FLOOR = 1e-3


def close(got: float, ref: float, rel: float = REL_TOL, floor: float = ABS_FLOOR) -> bool:
    """|got| against a reference modulus at a relative tolerance."""
    return abs(abs(got) - ref) <= rel * max(ref, floor)


def _spherical(point):
    x, y, z = (mp.mpf(c) for c in point)
    r = mp.sqrt(x * x + y * y + z * z)
    theta = mp.acos(z / r) if r else mp.mpf(0)
    phi = mp.atan2(y, x)
    return r, theta, phi


def momentum_radial(n: int, l: int, p) -> float:
    """|F_nl(p)|, the Podolsky-Pauling radial factor including p^l."""
    p = mp.mpf(p)
    n2p2 = n * n * p * p
    norm = mp.sqrt(2 / mp.pi * mp.factorial(n - l - 1) / mp.factorial(n + l))
    val = (norm * n * n * mp.mpf(2) ** (2 * l + 2) * mp.factorial(l)
           * n ** l * p ** l / (n2p2 + 1) ** (l + 2)
           * _gegenbauer(n - l - 1, l + 1, (n2p2 - 1) / (n2p2 + 1)))
    return float(abs(val))


def psi_momentum(n: int, l: int, m: int, point) -> float:
    p, theta, phi = _spherical(point)
    if p == 0:
        return momentum_radial(n, l, 0) / float(mp.sqrt(4 * mp.pi)) if l == 0 else 0.0
    return momentum_radial(n, l, p) * float(abs(mp.spherharm(l, m, theta, phi)))


def radial_position(n: int, l: int, r) -> float:
    return float(abs(sympy.N(R_nl(n, l, sympy.Float(r, DPS), 1), DPS)))


def psi_position(n: int, l: int, m: int, point) -> float:
    r, theta, phi = _spherical(point)
    val = Psi_nlm(n, l, m, sympy.Float(str(r), DPS), sympy.Float(str(phi), DPS),
                  sympy.Float(str(theta), DPS), 1)
    return float(abs(sympy.N(val, DPS)))


def _gegenbauer(m: int, a, x):
    """C_m^(a)(x) from its explicit finite sum, in mpmath arithmetic."""
    a, x = mp.mpf(a), mp.mpf(x)
    return mp.fsum((-1) ** k * mp.gamma(m - k + a) / (mp.gamma(a) * mp.factorial(k)
                                                       * mp.factorial(m - 2 * k))
                   * (2 * x) ** (m - 2 * k) for k in range(m // 2 + 1))


def gegenbauer(m: int, a: float, x: float) -> float:
    return float(abs(_gegenbauer(m, a, x)))


def fock_point(pvec, delta: float) -> list[float]:
    """Moduli of y = (2 delta p, p^2 - delta^2) / (p^2 + delta^2)."""
    p = [mp.mpf(c) for c in pvec]
    delta = mp.mpf(delta)
    p2 = sum(c * c for c in p)
    den = p2 + delta * delta
    return [float(abs(2 * delta * c / den)) for c in p] + [float(abs((p2 - delta * delta) / den))]
