"""The stereographic projection of momentum space onto the unit 3-sphere.

Momentum p maps to y = (2 delta p, p^2 - delta^2)/(p^2 + delta^2); the bound
state (n, l, m) then becomes a 4-D spherical harmonic on the sphere.  This
demo tabulates the map, checks the norm, and shows the Gegenbauer argument
x = y4 at work: the momentum wavefunction is a polynomial in x divided by
powers of (p^2 + delta^2).
"""

import numpy as np

from fockspace import hydrogen, identities

delta = 0.5
print(f"Stereographic map at delta = {delta} (p along the z axis)")
print(f"{'p':>6} {'y3':>10} {'y4 (Fock x)':>12} {'|y|':>10}")
for p in np.linspace(0.0, 4.0, 9):
    fp = hydrogen.fock_map((0.0, 0.0, float(p)), delta)
    norm = float(np.sqrt(sum(c * c for c in fp.y)))
    print(f"{p:6.2f} {fp.y[2]:10.6f} {fp.x:12.6f} {norm:10.8f}")
print("p = delta sits on the equator (x = 0); p -> infinity approaches the north pole.\n")

print("Energies (hartree): E_n = -1/(2 n^2)")
for n in range(1, 6):
    print(f"  n={n}:  {hydrogen.energy(n):+.6f}")
print()

print("4-D spherical harmonics on the unit 3-sphere")
print("These are the momentum wavefunctions after the projection; the ground")
print("state is the constant 1/(sqrt(2) pi):")
v = identities.point_on_s3(1.1, 0.7, 2.0)
print(f"  Y_100 at a generic point : {identities.hyperspherical_Y(1, 0, 0, v):.12f}")
print(f"  1/(sqrt(2) pi)           : {1.0 / (np.sqrt(2.0) * np.pi):.12f}\n")

print("Orthonormality of the first shells (Gram deviation from identity):")
from fockspace import quadrature

rule = quadrature.s3_rule(20, 20, 21)
states = [(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
fields = [identities.hyperspherical_on_s3(n, l, m, rule) for (n, l, m) in states]
gram = np.array([[np.sum(rule.weights * np.conj(a) * b) for b in fields] for a in fields])
print(f"  {len(states)} states, max |Gram - I| = {np.max(np.abs(gram - np.eye(len(states)))):.2e}")
