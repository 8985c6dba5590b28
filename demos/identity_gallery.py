"""A walk through the verified identity family, including the printed defects.

Two identities circulate with misprints and are evaluated in both forms: the
Legendre duplication formula (printed power off by a factor 2) and the
integral representation of the Gegenbauer generating function (printed
prefactor does not close even at l = 0; the measured calibration constant is
2^l l! (alpha sin chi)^l).
"""

import math

import numpy as np

from fockspace import identities as idn

print("Gegenbauer generating function (1 - 2xt + t^2)^-a vs its series:")
for (a, t, x) in [(1.0, 0.5, 1.0), (1.5, 0.4, 0.3), (3.0, -0.5, -0.7)]:
    chk = idn.genfunc_gegenbauer(a, t, x)
    print(f"  a={a:3} t={t:+.1f} x={x:+.1f}: closed {chk.closed:.10f}, "
          f"series {chk.series:.10f}, residual {chk.residual:.1e}")
print()

print("Bessel-weighted generating function:")
for (a, z, chi) in [(1.0, 2.0, math.pi / 2), (2.0, 5.0, 1.0), (1.5, 3.0, 2.2)]:
    chk = idn.bessel_genfunc(a, z, chi)
    print(f"  a={a} z={z} chi={chi:.2f}: lhs {chk.lhs:.10f}, rhs {chk.rhs:.10f}, "
          f"residual {chk.residual:.1e}")
print()

print("Integral representation: ratio rhs/lhs = 2^l l! (alpha sin chi)^l,")
print("chi-independent after removing the (alpha sin chi)^l factor:")
for l in range(4):
    kappas = [idn.integral_rep(l, 0.4, chi).kappa
              for chi in np.linspace(0.3, math.pi - 0.3, 7)]
    print(f"  l={l}: kappa = {np.mean(kappas):12.8f} "
          f"(expect {2**l * math.factorial(l)}), spread {max(kappas) - min(kappas):.1e}")
print()

print("Legendre duplication formula, printed vs corrected power:")
print(f"{'n':>4} {'printed residual':>18} {'corrected residual':>20}")
for n in (0, 1, 2, 5, 10):
    chk = idn.duplication_check(n)
    print(f"{n:4d} {chk.printed:18.12f} {chk.corrected:20.2e}")
print("The printed form misses by exactly a factor 2 at every n.\n")

print("Plane-wave expansion truncated at L:")
rv = np.array([5.0, 0.0, 0.0])
rp = np.array([0.3, 0.8, 0.52])
rp /= np.linalg.norm(rp)
for L in (5, 10, 15, 20, 25, 30):
    print(f"  L={L:2d}: residual {idn.plane_wave_partial(rv, rp, L).residual:.2e}")
print()

print("Passage from 4-D harmonics to D-matrix elements (corrected m-structure):")
rng = np.random.default_rng(3)
for n in range(1, 5):
    worst = 0.0
    for l in range(n):
        phase = idn.passage_phase(n, l)
        for m in range(-l, l + 1):
            chi, th, ph = rng.uniform(0.3, 2.8, size=3)
            chk = idn.passage_residual(n, l, m, chi, th, ph, phase=phase)
            worst = np.maximum(worst, chk.residual)
    print(f"  n={n}: worst residual over all (l, m) = {worst:.2e}  (global phases all 1)")
