"""Momentum-space hydrogen wavefunctions: closed form vs direct transform.

The closed form gives psi~ in one shot from a Gegenbauer polynomial of the
Fock variable; the oracle route numerically integrates R_nl(r) j_l(pr) r^2.
The two agree in modulus to quadrature precision, and their constant phase
offset per (n, l) is exactly (-1)^l: the closed form circulates with i^l
where the transform convention e^{-ip.r} produces (-i)^l.
"""

import math

import numpy as np

from fockspace import hydrogen, quadrature, specfun

print("=" * 72)
print("Ground state: |psi~_100(0)| should be 2*sqrt(2)/pi = 0.900316...")
print("=" * 72)

target = 2.0 * math.sqrt(2.0) / math.pi
qn = specfun.QuantumNumbers(1, 0, 0)
closed = abs(hydrogen.psi_momentum(qn, (0.0, 0.0, 0.0)))
oracle = abs(quadrature.radial_hankel(1, 0, 0.0)) / math.sqrt(4.0 * math.pi)
print(f"closed form : {closed:.15f}")
print(f"transform   : {oracle:.15f}")
print(f"target      : {target:.15f}")
print(f"agreement   : {abs(closed - oracle):.2e} absolute\n")

print("Momentum radial profile of the 3d state (n=3, l=2):")
print(f"{'p':>8} {'|closed|':>14} {'|transform|':>14} {'phase ratio':>14}")
p_grid = np.linspace(0.05, 1.0, 8) / 3.0
closed_vals = hydrogen.radial_momentum(3, 2, p_grid)
oracle_vals = quadrature.radial_hankel(3, 2, p_grid)
for p, c, o in zip(p_grid, closed_vals, oracle_vals):
    print(f"{p:8.4f} {abs(c):14.8e} {abs(o):14.8e} {o / c:14.4f}")

print("\nPhase offsets (transform / closed form), constant per (n, l):")
for n in range(1, 5):
    row = []
    for l in range(n):
        p = np.linspace(0.1, 2.0, 5) / n
        unit = complex(np.mean(quadrature.radial_hankel(n, l, p)
                               / hydrogen.radial_momentum(n, l, p)))
        row.append(f"l={l}: {unit.real:+.0f}{unit.imag:+.0f}i")
    print(f"  n={n}:  " + "   ".join(row))
print("\nPattern: (-1)^l, i.e. the i^l in the closed form vs the true (-i)^l.")

print("\nNormalization of every state with n <= 5 (should all be 1):")
for n in range(1, 6):
    norms = [quadrature.momentum_norm(n, l) for l in range(n)]
    print(f"  n={n}: " + "  ".join(f"{v:.12f}" for v in norms))
