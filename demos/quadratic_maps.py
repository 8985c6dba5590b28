"""Quadratic norm-squaring maps and the 4-space lift of 3-space integrals.

All three maps (2->2, 4->3, 8->5) square the Euclidean norm.  The 4->3 map
has circle fibers; integrating a 3-space function through the lift picks up
a (4/pi) |u|^2 weight, checked here against closed-form integrals by both
product Gauss-Hermite quadrature and a seeded, randomly shifted lattice
rule (the Monte Carlo route).
"""

import math

import numpy as np

from fockspace import quadmaps

rng = np.random.default_rng(1)

print("Norm-squaring identities on random points:")
u2 = rng.normal(size=(1000, 2))
xy, rp = quadmaps.levi_civita(u2)
print(f"  2 -> 2: max |x'^2+y'^2 - r'^2| / r'^2 = {np.max(np.abs(np.sum(xy**2, -1) - rp**2) / rp**2):.2e}")
u4 = rng.normal(size=(1000, 4))
xyz, r = quadmaps.ks_map(u4)
print(f"  4 -> 3: max ||x|^2 - r^2| / r^2      = {np.max(np.abs(np.sum(xyz**2, -1) - r**2) / r**2):.2e}")
u8 = rng.normal(size=(1000, 8))
x5, r8 = quadmaps.hurwitz_map(u8)
print(f"  8 -> 5: max ||x|^2 - r^2| / r^2      = {np.max(np.abs(np.sum(x5**2, -1) - r8**2) / r8**2):.2e}\n")

print("Fibered parameterization: the image never moves with the fiber angle")
base = quadmaps.ks_map(quadmaps.cayley_klein(2.0, 0.8, 1.9, 0.0))[0]
drift = max(
    float(np.max(np.abs(quadmaps.ks_map(quadmaps.cayley_klein(2.0, 0.8, 1.9, psi))[0] - base)))
    for psi in np.linspace(0.0, 2.0 * math.pi, 32)
)
print(f"  image drift over a 32-point fiber sweep: {drift:.2e}")
print(f"  image: {base}, expected spherical point "
      f"{2.0 * np.array([math.sin(0.8) * math.cos(1.9), math.sin(0.8) * math.sin(1.9), math.cos(0.8)])}\n")

print("Lifted integrals: integral f d^3r = (4/pi) integral f(map(u)) |u|^2 d^4u")
cases = [
    ("exp(-r)  ", lambda p: np.exp(-np.linalg.norm(p, axis=-1)), 8.0 * math.pi, "8 pi"),
    ("exp(-r^2)", lambda p: np.exp(-np.sum(p ** 2, axis=-1)), math.pi ** 1.5, "pi^(3/2)"),
]
for name, f, want, label in cases:
    quad = quadmaps.ks_integral(f)
    mc = quadmaps.ks_integral(f, method="mc", seed=7)
    print(f"  f = {name}: quadrature {quad.value:.8f}, mc {mc.value:.6f} "
          f"(+- {mc.error:.1e}), exact {label} = {want:.8f}")

ball = quadmaps.ks_integral(
    lambda p: (np.sum(p ** 2, axis=-1) < 1.0).astype(float),
    method="mc", seed=8,
)
print(f"  f = 1(r<1)  : mc {ball.value:.6f} (+- {ball.error:.1e}), "
      f"exact 4 pi/3 = {4 * math.pi / 3:.6f}")
