"""Acceptance criteria, one test per criterion, read from the shared seed-42 report.

``CRITERIA`` maps each criterion to the ``verify all`` cases that carry it,
by case-id prefix.  A criterion holds when each of its prefixes names at
least one case and every named case passes.  Where the criterion's own
bound is tighter than the suite tolerance, or normalises the error
differently, the check also carries that bound and the error it measures,
recomputed from the case's ``lhs`` and ``rhs``.  The one check whose points
no suite case draws is evaluated directly in its test.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
carry the same conditions, so the suite outcome is authoritative either way.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from fockspace import quadmaps
from fockspace.verify import _worst  # NaN-keeping; the builtin max(0.0, nan) is 0.0

GROUND_AMPLITUDE = 2.0 * math.sqrt(2.0) / math.pi  # |psi~_100(0)|


def _residual(case) -> float:
    return case["residual"]


def _gap(case) -> float:
    return abs(complex(*case["lhs"]) - complex(*case["rhs"]))


def _relative(case) -> float:
    """|lhs - rhs| / |rhs|: the error relative to the closed form or target."""
    return _gap(case) / abs(complex(*case["rhs"]))


class Check(NamedTuple):
    prefix: str
    bound: float | None = None  # the criterion's own bound on ``error``, if any
    error: Callable = _residual


CRITERIA = {
    1: [Check("ground_momentum_amplitude[", 1e-8, lambda c: _gap(c) / GROUND_AMPLITUDE)],
    2: [
        Check("fourier_modulus["),
        Check("fourier_phase_constancy["),
        Check("fourier_phase_value[", 1e-9, _relative),
    ],
    3: [Check("gram_position["), Check("momentum_norm[", 1e-6, _relative)],
    4: [
        Check("extraction_position["),
        Check("extraction_momentum["),
        Check("extraction_momentum_phase[", 1e-6, _relative),
        Check("regulator_derivative_link["),
    ],
    5: [
        Check("ks_integral_exp[quadrature]", 5e-3, _relative),
        Check("ks_integral_gauss[quadrature]", 5e-3, _relative),
        Check("ks_integral_exp[mc]", 5e-3, _relative),
    ],
    6: [Check("det_identity["), Check("gamma_relations["), Check("gaussian_mc[")],
    7: [
        Check("genfunc_gegenbauer["),
        Check("gegenbauer_recurrence["),
        Check("bessel_genfunc["),
        Check("integral_rep_kappa_constancy["),
        Check("integral_rep_l0[", 1e-12, _relative),
    ],
    8: [
        Check("hyperspherical_orthonormality["),
        Check("triple_D["),
        Check("passage["),
        Check("passage_phase_unit["),
    ],
    9: [Check("duplication_printed_factor2["), Check("duplication_corrected[")],
}


def _criterion(number: int, report, extra=()):
    """Judge criterion ``number`` on ``report``, print its line and assert it.

    ``extra`` holds (label, error, bound) triples checked outside the report.
    """
    ok = True
    parts = []
    for check in CRITERIA[number]:
        cases = [c for c in report.cases if c["id"].startswith(check.prefix)]
        worst = _worst(*(check.error(c) for c in cases)) if cases else math.nan
        passed = bool(cases) and all(c["passed"] for c in cases)
        if check.bound is not None:
            passed = passed and worst <= check.bound
        ok = ok and passed
        bound = "suite tol" if check.bound is None else f"{check.bound:g}"
        parts.append(f"{check.prefix}: {len(cases)} cases, worst {worst:.3g} ({bound})")
    for label, error, bound in extra:
        ok = ok and error <= bound
        parts.append(f"{label}: {error:.3g} ({bound:g})")
    detail = "; ".join(parts)
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_criterion_1_ground_state_momentum_amplitude(pooled_report):
    _criterion(1, pooled_report)


def test_criterion_2_fourier_consistency_sweep(pooled_report):
    _criterion(2, pooled_report)


def test_criterion_3_normalization_and_orthogonality(pooled_report):
    _criterion(3, pooled_report)


def test_criterion_4_coefficient_extraction(pooled_report):
    _criterion(4, pooled_report)


def test_criterion_5_ks_measure_identity(pooled_report):
    # the suite draws no lattice-rule Gaussian integral; this one is direct
    gauss = quadmaps.ks_integral(lambda p: np.exp(-np.sum(p ** 2, axis=-1)),
                                 method="mc", seed=43)
    error = abs(gauss.value - math.pi ** 1.5) / math.pi ** 1.5
    _criterion(5, pooled_report, extra=[("exp(-r^2) mc seed 43", error, 5e-3)])


def test_criterion_6_clifford_determinant_family(pooled_report):
    _criterion(6, pooled_report)


def test_criterion_7_gegenbauer_identity_suite(pooled_report):
    _criterion(7, pooled_report)


def test_criterion_8_hyperspherical_block(pooled_report):
    _criterion(8, pooled_report)


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


def test_criterion_9_known_failure_documentation(pooled_report):
    ids = {d["id"] for d in pooled_report.paper_discrepancies}
    off_list = len(ids ^ EXPECTED_DISCREPANCY_IDS)
    _criterion(9, pooled_report, extra=[("discrepancy ids off the documented list", off_list, 0)])


def test_criterion_9_report_carries_the_evidence(pooled_report):
    assert pooled_report.paper_discrepancies, "paper-discrepancy section must be non-empty"
    ids = {d["id"] for d in pooled_report.paper_discrepancies}
    assert "duplication-formula-power" in ids
    dup_cases = [c for c in pooled_report.cases
                 if c["id"].startswith("duplication_printed_factor2")]
    assert dup_cases and all(c["passed"] for c in dup_cases)
    n1 = [c for c in dup_cases if c["params"].get("n") == 1]
    assert n1 and abs(n1[0]["lhs"][0] - 0.5) < 1e-12
    corrected = [c for c in pooled_report.cases if c["id"].startswith("duplication_corrected")]
    assert corrected and corrected[0]["passed"]


def test_every_criterion_prefix_names_a_case(pooled_report):
    # a renamed case must not silently drop a criterion's coverage
    ids = [c["id"] for c in pooled_report.cases]
    orphans = [(number, check.prefix) for number, checks in CRITERIA.items()
               for check in checks if not any(i.startswith(check.prefix) for i in ids)]
    assert not orphans
