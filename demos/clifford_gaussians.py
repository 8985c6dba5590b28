"""The anticommuting matrix family and its Gaussian determinant identities.

A_n = sum_i x_i Gamma_i with Gamma_i^2 = -I and pairwise anticommutation
(last Gamma = identity) forces

    det(I - alpha A_n) = (1 - 2 alpha x_last + alpha^2 |x|^2)^(2^(n-2)),

so the Gaussian average of exp(alpha z^bar.A_n z) is a pure power of the
Gegenbauer generating-function kernel.  Three independent routes below:
LU determinants, randomly shifted lattice-rule integration (the
Monte Carlo route), and the Gegenbauer series.
"""

import math

import numpy as np

from fockspace import clifford, quadrature

rng = np.random.default_rng(2)

print("Exact algebra: squares and anticommutators of the generators")
for n in range(1, 7):
    gam = clifford.gammas(n)
    eye = np.eye(gam[0].shape[0])
    sq = max(np.max(np.abs(g @ g + eye)) for g in gam[:-1])
    anti = max(
        np.max(np.abs(gi @ gj + gj @ gi))
        for i, gi in enumerate(gam[:-1]) for gj in gam[i + 1:-1]
    ) if len(gam) > 2 else 0.0
    print(f"  level {n} ({gam[0].shape[0]}x{gam[0].shape[0]}): "
          f"max|G^2+I| = {sq:.1f}, max|{{Gi,Gj}}| = {anti:.1f}")
print()

print("Determinant identity, 200 random draws per level:")
for n in range(1, 6):
    npar = len(clifford.gammas(n))
    worst = 0.0
    for _ in range(200):
        x = rng.normal(size=npar)
        alpha = rng.uniform(-1, 1) * 0.5 / (1 + np.linalg.norm(x))
        res = clifford.det_identity(n, x, alpha)
        worst = np.maximum(worst, res.residual / abs(res.closed_form))
    power = 1 if n == 1 else 2 ** (n - 2)
    print(f"  level {n}: det(I - a A) = (1 - 2 a x_last + a^2 |x|^2)^{power}, "
          f"worst rel residual {worst:.2e}")
print()

print(f"Lattice-rule cross-check of the Gaussian closed form "
      f"({quadrature.DEFAULT_SAMPLES:,} points, 32 shifts of the lattice):")
for (n, x, alpha) in [
    (2, (0.0, 0.0, 0.0, 0.5), 0.3),
    (3, (0.10, 0.05, -0.10, 0.20, 0.10, 0.30), 0.2),
]:
    res = clifford.gaussian_mc(n, x, alpha, seed=5)
    sig = res.residual / res.stderr
    print(f"  level {n}: mc {res.value.real:.6f} vs closed {res.closed_form.real:.6f} "
          f"({sig:.2f} sigma)")
print()

print("Gegenbauer series of the closed form:")
chi = 0.8
x = (math.sin(chi), 0.0, math.cos(chi))
resid = clifford.gegenbauer_series_check(1, x, 0.4, 200)
print(f"  level 1 on |x| = 1 is the Legendre series: residual {resid:.2e}")
resid = clifford.gegenbauer_series_check(2, (0.5, 0.5, 0.5, 0.5), 0.4, 80)
print(f"  level 2, 80 terms of order-1 Gegenbauer:   residual {resid:.2e}")
