"""The suite runner: all suites green, case order fixed under threads, report sane.

The seed-42 runs come from the session fixtures of ``conftest.py``; the
tests here that change the seed, a tolerance or the code run their own.
"""

import json
import math
from pathlib import Path

import pytest

from fockspace import cli, clifford, hydrogen, identities, verify
from fockspace.errors import ConvergenceError

CASE_IDS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_case_ids.txt"


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_each_suite_passes(name, serial_suites):
    cases, _ = serial_suites[name]
    failing = [c["id"] for c in cases if not c["passed"]]
    assert cases and not failing, f"failing cases: {failing[:10]}"


def test_run_all_merges_everything(pooled_report):
    assert pooled_report.all_passed
    ids = {c["id"] for c in pooled_report.cases}
    assert any(i.startswith("det_identity") for i in ids)
    assert any(i.startswith("fourier_modulus") for i in ids)
    assert any(i.startswith("ks_integral") for i in ids)
    assert any(i.startswith("passage") for i in ids)
    assert ({d["id"] for d in pooled_report.paper_discrepancies}
            == set(verify.discrepancy_registry()))


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_verify("nonsense")


def test_tolerance_override_tightening_fails_a_case():
    report = verify.run_verify("maps", seed=42, tols={"ks_integral": 1e-30})
    assert not report.all_passed


def test_unknown_tolerance_key_rejected():
    with pytest.raises(ValueError, match="ks_integral_typo"):
        verify.run_verify("maps", seed=42, tols={"ks_integral_typo": 1e-30})


def test_thread_pool_keeps_case_order(pooled_report, serial_suites):
    # same cases and discrepancies in the same order regardless of threading
    serial = [serial_suites[name] for name in verify.SUITES]
    assert pooled_report.cases == [case for cases, _ in serial for case in cases]
    assert pooled_report.paper_discrepancies == [d for _, ds in serial for d in ds]


def test_report_json_is_stable_under_seed(tmp_path):
    # identical seeds give identical reports modulo wall time
    r1 = verify.run_verify("clifford", seed=9)
    r2 = verify.run_verify("clifford", seed=9)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_discrepancy_registry_measured_fields_filled(pooled_report):
    by_id = {d["id"]: d for d in pooled_report.paper_discrepancies}
    assert by_id["momentum-phase-il"]["measured"]["pattern"] == "(-1)^l"
    assert by_id["duplication-formula-power"]["measured"]["printed_residual_at_n1"] == pytest.approx(0.5)
    assert "kappa" in by_id["integral-representation-prefactor"]["measured"]


def test_nan_residual_fails_its_case(monkeypatch):
    genuine = identities.genfunc_gegenbauer

    def nan_at_a1(a, t, x):
        check = genuine(a, t, x)
        return check._replace(residual=math.nan) if a == 1.0 and x > 0.0 else check

    monkeypatch.setattr(identities, "genfunc_gegenbauer", nan_at_a1)
    cases, _ = verify.suite_identities(seed=42)
    verdict = {c["id"]: c["passed"] for c in cases if c["id"].startswith("genfunc_gegenbauer")}
    assert verdict == {
        "genfunc_gegenbauer[a=0.5]": True,
        "genfunc_gegenbauer[a=1.0]": False,
        "genfunc_gegenbauer[a=1.5]": True,
        "genfunc_gegenbauer[a=2.0]": True,
        "genfunc_gegenbauer[a=3.0]": True,
    }


def test_all_case_ids_and_discrepancy_order(pooled_report):
    assert [c["id"] for c in pooled_report.cases] == CASE_IDS.read_text().split()
    assert ([d["id"] for d in pooled_report.paper_discrepancies]
            == list(verify.discrepancy_registry()))


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_bad_tolerance_value_rejected(value):
    with pytest.raises(ValueError, match="finite and >= 0"):
        verify.run_verify("maps", seed=42, tols={"ks_integral": value})


def test_negative_seed_rejected_before_any_suite_body(monkeypatch):
    # numpy's generators refuse a negative seed; the runner must not turn
    # that into a suite_error case after part of a suite has run
    calls = []
    monkeypatch.setattr(hydrogen, "psi_momentum", lambda *args: calls.append(args))
    for run in (lambda: verify.run_verify("all", seed=-1),
                lambda: verify.run_verify("clifford-det", seed=-5),
                lambda: verify.suite_hydrogen(-1)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run()
    assert calls == []


def test_huge_seed_runs():
    report = verify.run_verify("maps", seed=10 ** 23)
    assert report.all_passed and report.seed == 10 ** 23


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def test_suite_exception_becomes_a_failed_case(monkeypatch, tmp_path, serial_suites):
    def diverge(*args, **kwargs):
        raise ConvergenceError("Cauchy circle did not converge", residual=1.0)

    monkeypatch.setattr(hydrogen, "extract_coefficient", diverge)
    # the other suites hand back their seed-42 results; only hydrogen runs
    for name in ("maps", "clifford", "identities"):
        monkeypatch.setitem(verify.SUITES, name,
                            lambda seed, tols, nodes, name=name: serial_suites[name])
    out = tmp_path / "report.json"
    assert cli.main(["verify", "all", "--seed", "42", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    # hydrogen keeps the cases before the fault; the other suites are whole
    ids = CASE_IDS.read_text().split()
    fault = ids.index("extraction_position[n=1,l=0,m=0]")
    rest = ids.index("levi_civita_norm[random]")
    assert [c["id"] for c in report["cases"]] == (
        ids[:fault] + ["suite_error[hydrogen]"] + ids[rest:]
    )
    error = next(c for c in report["cases"] if c["id"] == "suite_error[hydrogen]")
    assert error["passed"] is False
    assert error["params"]["suite"] == "hydrogen"
    assert error["params"]["error"] == "ConvergenceError"
    assert error["params"]["message"] == "Cauchy circle did not converge"
    # strict JSON: the NaN sides and residual are written as null
    assert error["residual"] is None and error["lhs"][0] is None
    assert report["failed"] == 1


def test_gamma_anticommutator_residual_is_measured(monkeypatch):
    genuine = clifford.gammas

    def skewed(n):
        gam = genuine(n)
        return (1.5 * gam[0],) + gam[1:] if n == 2 else gam

    monkeypatch.setattr(clifford, "gammas", skewed)
    cases, discrepancies = verify.suite_clifford(seed=1)
    residuals = [c["residual"] for c in cases if c["id"].startswith("gamma_relations[")]
    measured = {d["id"]: d["measured"] for d in discrepancies}
    reported = measured["gamma-anticommutator-sign"]["anticommutator_max_residual"]
    assert reported == max(residuals) > 0.0


def test_clifford_det_is_the_clifford_suites_first_draws():
    det = verify.run_verify("clifford-det", seed=7)
    full = verify.run_verify("clifford", seed=7)
    assert det.suite == "clifford-det"
    assert det.cases == full.cases[:1000]
    assert det.paper_discrepancies == []
