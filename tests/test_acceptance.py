"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
carry the same conditions, so the suite outcome is authoritative either way.
"""

import math

import numpy as np

from fockspace import (
    clifford, hydrogen, identities, quadmaps, quadrature, specfun, verify,
)
from fockspace.verify import _worst  # NaN-keeping; the builtin max(0.0, nan) is 0.0

SEED = 42


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. ground-state momentum amplitude from both routes
# ---------------------------------------------------------------------------

def test_criterion_1_ground_state_momentum_amplitude():
    target = 2.0 * math.sqrt(2.0) / math.pi
    closed = abs(hydrogen.psi_momentum(specfun.QuantumNumbers(1, 0, 0), (0, 0, 0)))
    oracle = abs(quadrature.radial_hankel(1, 0, 0.0)) / math.sqrt(4.0 * math.pi)
    errs = (
        abs(closed - target) / target,
        abs(oracle - target) / target,
        abs(closed - oracle) / target,
    )
    _report(1, _worst(*errs) <= 1e-8,
            f"|psi~_100(0)| closed={closed:.12f} oracle={oracle:.12f} "
            f"target=2*sqrt(2)/pi={target:.12f} max rel err={_worst(*errs):.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 2. Fourier consistency sweep for n <= 4
# ---------------------------------------------------------------------------

def test_criterion_2_fourier_consistency_sweep():
    worst_mod = 0.0
    worst_spread = 0.0
    units = {}
    for n in range(1, 5):
        delta = 1.0 / n
        p = delta * np.linspace(0.1, 4.0, 20)
        for l in range(n):
            closed = hydrogen.radial_momentum(n, l, p)
            oracle = quadrature.radial_hankel(n, l, p)
            worst_mod = _worst(worst_mod, float(np.max(
                np.abs(np.abs(oracle) - np.abs(closed)) / np.abs(closed))))
            ratio = oracle / closed
            unit = complex(np.mean(ratio))
            units[(n, l)] = unit
            worst_spread = _worst(worst_spread, float(np.max(np.abs(ratio - unit))))
    ok = worst_mod <= 1e-6 and worst_spread <= 1e-6
    shown = ", ".join(f"(n={n},l={l}): {u.real:+.0f}{u.imag:+.0f}i"
                      for (n, l), u in sorted(units.items())[:4])
    _report(2, ok,
            f"modulus rel err={worst_mod:.2e} (tol 1e-6), phase-unit spread="
            f"{worst_spread:.2e}; offsets are (-1)^l, e.g. {shown}")


# ---------------------------------------------------------------------------
# 3. normalization and orthogonality
# ---------------------------------------------------------------------------

def test_criterion_3_normalization_and_orthogonality():
    worst_gram = 0.0
    for l in range(3):
        ns = list(range(l + 1, 7))
        gram = np.array([
            [hydrogen.radial_overlap(n1, n2, l, npts=220) for n2 in ns] for n1 in ns
        ])
        worst_gram = _worst(worst_gram, float(np.max(np.abs(gram - np.eye(len(ns))))))
    worst_norm = 0.0
    for n in range(1, 6):
        for l in range(n):
            worst_norm = _worst(worst_norm, abs(hydrogen.momentum_norm(n, l) - 1.0))
    ok = worst_gram <= 1e-8 and worst_norm <= 1e-6
    _report(3, ok,
            f"position Gram deviation={worst_gram:.2e} (tol 1e-8), momentum norm "
            f"deviation={worst_norm:.2e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. generating-function coefficient extraction
# ---------------------------------------------------------------------------

def test_criterion_4_coefficient_extraction():
    worst_pos = 0.0
    worst_mom = 0.0
    units = {}
    for (n, l, m) in [(1, 0, 0), (2, 1, 0), (3, 1, 1)]:
        qn = specfun.QuantumNumbers(n, l, m)
        scale = hydrogen.extraction_scale(n, l)
        rng = np.random.default_rng(SEED + 10 * n + l)

        pts = rng.uniform(-2.0, 2.0, size=(5, 3))
        coeff = hydrogen.extract_coefficient("position", qn, n)
        got = np.array([coeff(pt) for pt in pts]) / scale
        want = np.array([hydrogen.psi_position(qn, pt) for pt in pts])
        resid = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        worst_pos = _worst(worst_pos, resid)

        pts = rng.uniform(-1.2, 1.2, size=(5, 3))
        coeff = hydrogen.extract_coefficient("momentum", qn, n)
        got = np.array([coeff(pt) for pt in pts]) / scale
        want = np.array([hydrogen.psi_momentum(qn, pt) for pt in pts])
        big = np.abs(want) > 1e-3 * np.max(np.abs(want))
        unit = complex(np.mean(got[big] / want[big]))
        units[(n, l)] = unit
        worst_mom = _worst(worst_mom, float(
            np.max(np.abs(got - unit * want)) / np.max(np.abs(want))))
        assert abs(abs(unit) - 1.0) <= 1e-6

    # the regulator-derivative link at finite-difference accuracy 1e-7
    rng = np.random.default_rng(SEED)
    worst_link = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        al = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        xi = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        eta = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        pv = rng.uniform(-1.5, 1.5, size=3)
        dl = rng.uniform(0.3, 1.5)
        h = 1e-5
        fd = -(hydrogen.genfunc_momentum_regulated(z, al, xi, eta, +h, pv, dl)
               - hydrogen.genfunc_momentum_regulated(z, al, xi, eta, -h, pv, dl)) / (2 * h)
        exact = hydrogen.genfunc_momentum(z, al, xi, eta, pv, dl)
        worst_link = _worst(worst_link, abs(fd - exact) / abs(exact))

    ok = worst_pos <= 1e-6 and worst_mom <= 1e-6 and worst_link <= 1e-7
    shown = ", ".join(f"(n={n},l={l}): {u.real:+.0f}{u.imag:+.0f}i"
                      for (n, l), u in sorted(units.items()))
    _report(4, ok,
            f"position extraction err={worst_pos:.2e}, momentum extraction err="
            f"{worst_mom:.2e} after unit {shown} (tol 1e-6); "
            f"regulator-derivative link err={worst_link:.2e} (tol 1e-7)")


# ---------------------------------------------------------------------------
# 5. the lifted measure identity
# ---------------------------------------------------------------------------

def test_criterion_5_ks_measure_identity():
    exp_decay = lambda p: np.exp(-np.linalg.norm(p, axis=-1))
    gauss = lambda p: np.exp(-np.sum(p ** 2, axis=-1))
    q1 = quadmaps.ks_integral(exp_decay)
    q2 = quadmaps.ks_integral(gauss)
    m1 = quadmaps.ks_integral(exp_decay, method="mc", seed=SEED)
    m2 = quadmaps.ks_integral(gauss, method="mc", seed=SEED + 1)
    errs = {
        "exp(-r) quad": abs(q1.value - 8 * math.pi) / (8 * math.pi),
        "exp(-r^2) quad": abs(q2.value - math.pi ** 1.5) / math.pi ** 1.5,
        "exp(-r) mc": abs(m1.value - 8 * math.pi) / (8 * math.pi),
        "exp(-r^2) mc": abs(m2.value - math.pi ** 1.5) / math.pi ** 1.5,
    }
    ok = _worst(*errs.values()) <= 5e-3
    _report(5, ok, "relative errors " + ", ".join(
        f"{k}={v:.2e}" for k, v in errs.items()) + " (tol 5e-3)")


# ---------------------------------------------------------------------------
# 6. the determinant family
# ---------------------------------------------------------------------------

def test_criterion_6_clifford_determinant_family():
    rng = np.random.default_rng(SEED)
    worst_det = 0.0
    for n in range(1, 6):
        npar = 3 if n == 1 else 2 * n
        for _ in range(200):
            x = rng.normal(size=npar)
            alpha = rng.uniform(-1, 1) * 0.5 / (1.0 + float(np.linalg.norm(x)))
            res = clifford.det_identity(n, x, alpha)
            worst_det = _worst(worst_det, res.residual / abs(res.closed_form))

    exact = True
    for n in range(1, 7):
        gam = clifford.gammas(n)
        eye = np.eye(gam[0].shape[0])
        for i, gi in enumerate(gam[:-1]):
            exact &= bool(np.array_equal(gi @ gi, -eye))
            for gj in gam[i + 1:-1]:
                exact &= bool(np.array_equal(gi @ gj + gj @ gi, np.zeros_like(eye)))

    mc2 = clifford.gaussian_mc(2, (0, 0, 0, 0.5), 0.3, seed=SEED)
    mc3 = clifford.gaussian_mc(3, (0.1, 0.05, -0.1, 0.2, 0.1, 0.3), 0.2, seed=SEED + 1)
    mc_ok = mc2.residual <= 3 * mc2.stderr and mc3.residual <= 3 * mc3.stderr

    ok = worst_det <= 1e-9 and exact and mc_ok
    _report(6, ok,
            f"det identity rel err={worst_det:.2e} over 1000 trials (tol 1e-9); "
            f"anticommutation exact={exact}; MC sigmas: n=2 "
            f"{mc2.residual / mc2.stderr:.2f}, n=3 {mc3.residual / mc3.stderr:.2f} (tol 3)")


# ---------------------------------------------------------------------------
# 7. the Gegenbauer identity suite
# ---------------------------------------------------------------------------

def test_criterion_7_gegenbauer_identity_suite():
    worst_gen = 0.0
    for a in (0.5, 1.0, 2.0, 3.0):
        for t in (-0.5, -0.25, 0.25, 0.5):
            for x in np.linspace(-1, 1, 9):
                chk = identities.genfunc_gegenbauer(a, t, float(x))
                worst_gen = _worst(worst_gen, chk.residual)

    worst_rec = 0.0
    for a in (1.5, 2.0, 4.0, 6.0):
        for n in range(21):
            for x in np.linspace(-1, 1, 9):
                scale = max(1.0, abs(specfun.gegenbauer(n + 1, a, float(x))))
                resid = identities.gegenbauer_recurrence(a, n, float(x))
                worst_rec = _worst(worst_rec, resid / scale)

    worst_bessel = 0.0
    for a in (1.0, 1.5, 2.0, 2.5, 3.0):
        for z in (0.5, 2.0, 5.0):
            for chi in (0.3, 0.5 * math.pi, 2.5):
                chk = identities.bessel_genfunc(a, z, chi)
                worst_bessel = _worst(worst_bessel, chk.residual)

    worst_kappa = 0.0
    for l in range(4):
        vals = [identities.integral_rep(l, 0.4, float(chi)).kappa
                for chi in np.linspace(0.2, math.pi - 0.2, 9)]
        spread = _worst(*vals) - min(vals)
        worst_kappa = _worst(worst_kappa, spread / (2.0 ** l * math.factorial(l)))
    l0 = identities.integral_rep(0, 0.5, 1.0)
    l0_err = abs(l0.rhs - l0.lhs) / abs(l0.lhs)

    ok = (worst_gen <= 1e-10 and worst_rec <= 1e-10 and worst_bessel <= 1e-8
          and worst_kappa <= 1e-7 and l0_err <= 1e-12)
    _report(7, ok,
            f"generating function={worst_gen:.2e} (1e-10), recurrence={worst_rec:.2e} "
            f"(1e-10), Bessel form={worst_bessel:.2e} (1e-8), integral-representation "
            f"chi-independence={worst_kappa:.2e} (1e-7), l=0 closure={l0_err:.2e}")


# ---------------------------------------------------------------------------
# 8. the hyperspherical block
# ---------------------------------------------------------------------------

def test_criterion_8_hyperspherical_block():
    rule = quadrature.s3_rule(24, 24, 25)
    states = [(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
    w = (rule.chi_weights[:, None, None]
         * rule.sphere.theta_weights[None, :, None] * rule.sphere.phi_weight)
    fields = [identities.hyperspherical_on_s3(n, l, m, rule) for (n, l, m) in states]
    worst_gram = 0.0
    for i, fi in enumerate(fields):
        for j, fj in enumerate(fields):
            val = complex(np.sum(w * np.conj(fi) * fj))
            worst_gram = _worst(worst_gram, abs(val - (1.0 if i == j else 0.0)))

    worst_triple = 0.0
    for n in (2, 3):
        l = n - 1
        for tm1 in range(-(n - 1), n, 2):
            for tm2 in range(-(n - 1), n, 2):
                m1, m2 = tm1 / 2.0, tm2 / 2.0
                m = -int(round(m1 + m2))
                if abs(m) > l:
                    continue
                chk = identities.triple_D_integral(n, m1, m2, l, m)
                worst_triple = _worst(worst_triple, chk.residual)

    rng = np.random.default_rng(SEED)
    worst_pass = 0.0
    phases = {}
    for n in range(1, 5):
        for l in range(n):
            phase = identities.passage_phase(n, l)
            phases[(n, l)] = phase
            for m in range(-l, l + 1):
                chi = float(rng.uniform(0.3, math.pi - 0.3))
                th = float(rng.uniform(0.3, math.pi - 0.3))
                ph = float(rng.uniform(0.0, 2 * math.pi))
                chk = identities.passage_residual(n, l, m, chi, th, ph, phase=phase)
                worst_pass = _worst(worst_pass, chk.residual)

    ok = worst_gram <= 1e-9 and worst_triple <= 1e-9 and worst_pass <= 1e-8
    _report(8, ok,
            f"S^3 orthonormality={worst_gram:.2e} (1e-9), triple-D vs 3j="
            f"{worst_triple:.2e} (1e-9), passage residual={worst_pass:.2e} (1e-8) "
            f"with measured phases all 1")


# ---------------------------------------------------------------------------
# 9. known-failure documentation in the report
# ---------------------------------------------------------------------------

EXPECTED_DISCREPANCY_IDS = {
    # one entry per documented open item, plus the duplication exhibit
    "laguerre-generating-convention",
    "momentum-phase-il",
    "expansion-weight-bookkeeping",
    "ks-lift-bookkeeping",
    "gamma-anticommutator-sign",
    "level3-entrywise-variant",
    "integral-representation-prefactor",
    "hyperspherical-radial-exponent",
    "passage-formula-m-structure",
    "duplication-formula-power",
}


def test_criterion_9_known_failure_documentation():
    registry = verify.discrepancy_registry()
    ids = set(registry)
    chk1 = identities.duplication_check(1)
    printed_shows_factor2 = abs(chk1.printed - 0.5) <= 1e-12
    corrected_passes = chk1.corrected <= 1e-13
    ok = (ids == EXPECTED_DISCREPANCY_IDS and len(ids) > 0
          and printed_shows_factor2 and corrected_passes)
    _report(9, ok,
            f"discrepancy registry has {len(ids)} entries matching the documented "
            f"open items; duplication formula printed residual at n=1 = "
            f"{chk1.printed:.3f} (factor 2), corrected residual = {chk1.corrected:.1e}")


def test_criterion_9_report_carries_the_evidence():
    report = verify.run_verify("identities", seed=SEED)
    assert report.paper_discrepancies, "paper-discrepancy section must be non-empty"
    ids = {d["id"] for d in report.paper_discrepancies}
    assert "duplication-formula-power" in ids
    dup_cases = [c for c in report.cases if c["id"].startswith("duplication_printed_factor2")]
    assert dup_cases and all(c["passed"] for c in dup_cases)
    n1 = [c for c in dup_cases if c["params"].get("n") == 1]
    assert n1 and abs(n1[0]["lhs"][0] - 0.5) < 1e-12
    corrected = [c for c in report.cases if c["id"].startswith("duplication_corrected")]
    assert corrected and corrected[0]["passed"]
