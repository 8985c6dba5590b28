"""The suite runner: all suites green, case order fixed in the worker pool, report sane.

The seed-42 runs come from the session fixtures of ``conftest.py``; the
tests here that change the seed, a tolerance or the code run their own.
"""

import json
import math
import multiprocessing
import os
import re
from pathlib import Path

import numpy as np
import pytest

from fockspace import cli, clifford, hydrogen, identities, verify
from fockspace.errors import ConvergenceError

CASE_IDS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_case_ids.txt"

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker pool needs fork")


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


def test_worker_pool_keeps_case_order(pooled_report, serial_suites):
    # same cases and discrepancies in the same order, pooled or serial
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


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf, "1e-3", None, 1 + 0j, True])
def test_bad_tolerance_value_rejected(value):
    with pytest.raises(ValueError, match="finite and >= 0"):
        verify.run_verify("maps", seed=42, tols={"ks_integral": value})


def test_negative_seed_rejected_before_any_suite_body(monkeypatch):
    # numpy's generators refuse a negative seed, and the quadrature rules a
    # node count outside [2, 4096]; the runner must not turn either into a
    # suite_error case after part of a suite has run, nor start a worker
    calls = []
    monkeypatch.setattr(hydrogen, "psi_momentum", lambda *args: calls.append(args))
    monkeypatch.setattr(verify, "ProcessPoolExecutor", lambda *args, **kw: calls.append(args))
    for run in (lambda: verify.run_verify("all", seed=-1),
                lambda: verify.run_verify("clifford-det", seed=-5),
                lambda: verify.run_verify("all", seed=1.5),
                lambda: verify.run_verify("all", seed="7"),
                lambda: verify.run_verify("clifford-det", seed=True),
                lambda: verify.suite_hydrogen(-1)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run()
    for nodes in (1, 5000, 2.5):
        for run in (lambda: verify.run_verify("all", nodes=nodes),
                    lambda: verify.run_verify("hydrogen", nodes=nodes),
                    lambda: verify.suite_hydrogen(42, None, nodes)):
            with pytest.raises(ValueError, match=r"nodes must be None or an integer in \[2, 4096\]"):
                run()
    assert calls == []
    # a numpy integer is a seed, and the report stores it as a plain int
    monkeypatch.undo()
    report = verify.run_verify("clifford-det", seed=np.int64(7))
    assert type(report.seed) is int and json.loads(report.to_json())["seed"] == 7


def test_huge_seed_runs():
    report = verify.run_verify("maps", seed=10 ** 23)
    assert report.all_passed and report.seed == 10 ** 23


def test_mistyped_discrepancy_id_fails_the_suite():
    with pytest.raises(ValueError, match="unknown discrepancy id 'momentum-phase-ill'"):
        verify._Recorder(None).measure("momentum-phase-ill", x=1)

    @verify._suite("typo")
    def suite_typo(rec, seed, nodes):
        rec.measure("momentum-phase-il", pattern="(-1)^l")
        rec.measure("momentum-phase-ill", x=1)

    cases, discrepancies = suite_typo(seed=42)
    assert [c["id"] for c in cases] == ["suite_error[typo]"]
    assert cases[0]["params"]["error"] == "ValueError" and not cases[0]["passed"]
    assert [d["id"] for d in discrepancies] == ["momentum-phase-il"]


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
    assert re.fullmatch(r"test_verify\.py:\d+ in diverge", error["params"]["where"])
    # strict JSON: the NaN sides and residual are written as null
    assert error["residual"] is None and error["lhs"][0] is None
    assert report["failed"] == 1


def _pool_of_two(monkeypatch, serial_suites, *names):
    # the named suites hand back their seed-42 results; a pool even on one CPU
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name in names:
        monkeypatch.setitem(verify.SUITES, name,
                            lambda seed, tols, nodes, name=name: serial_suites[name])


@needs_fork
def test_dead_worker_becomes_a_failed_case(monkeypatch, capfd, tmp_path, serial_suites):
    _pool_of_two(monkeypatch, serial_suites, "hydrogen", "clifford", "identities")
    monkeypatch.setitem(verify.SUITES, "maps", lambda seed, tols, nodes: os._exit(3))
    out = tmp_path / "report.json"
    assert cli.main(["verify", "all", "--seed", "42", "--out", str(out)]) == 1
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    # maps died with its worker; a suite pending in the broken pool fails the
    # same way, and every other suite is whole
    errors = {c["params"]["suite"]: c for c in report["cases"]
              if c["id"].startswith("suite_error[")}
    assert "maps" in errors and report["failed"] == len(errors)
    for error in errors.values():
        assert error["passed"] is False and error["params"]["error"] == "BrokenProcessPool"
        # the runner's own frame, not one inside concurrent.futures
        assert re.fullmatch(r"verify\.py:\d+ in _forked", error["params"]["where"])
    expected = [[errors[name]] if name in errors else serial_suites[name][0]
                for name in verify.SUITES]
    assert [c["id"] for c in report["cases"]] == [c["id"] for cs in expected for c in cs]


@needs_fork
def test_no_worker_outlives_the_run(monkeypatch, serial_suites):
    _pool_of_two(monkeypatch, serial_suites, *verify.SUITES)
    report = verify.run_verify("all", seed=42)
    assert multiprocessing.active_children() == []
    assert report.cases == [case for cases, _ in serial_suites.values() for case in cases]


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


def _det_draws(seed):
    # the determinant sweep's draws: per level, x then alpha for each trial
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        for trial in range(200):
            x = rng.normal(size=3 if n == 1 else 2 * n)
            yield n, trial, x, rng.uniform(-1.0, 1.0) * 0.5 / (1.0 + float(np.linalg.norm(x)))


def _bits(*values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("seed", [7, 42])
def test_stacked_det_sweep_is_the_per_draw_det_identity(seed, pooled_report):
    report = pooled_report if seed == 42 else verify.run_verify("clifford-det", seed=seed)
    cases = [c for c in report.cases if c["id"].startswith("det_identity[")]
    assert len(cases) == 1000
    for case, (n, trial, x, alpha) in zip(cases, _det_draws(seed)):
        assert case["id"] == f"det_identity[n={n},trial={trial}]"
        assert case["params"] == {"n": n, "alpha": alpha}
        res = clifford.det_identity(n, x, alpha)
        # the loop reference: one matrix, one LU and the closed form per draw
        a = clifford.build_A(n, x)
        value = complex(np.linalg.det(np.eye(a.shape[0]) - alpha * a))
        base = 1.0 - 2.0 * alpha * float(x[-1]) + alpha ** 2 * sum(v * v for v in map(float, x))
        closed = complex(base) ** (1 if n == 1 else 1 << (n - 2))
        for got in (res.value, value):
            assert _bits(*case["lhs"]) == _bits(got.real, got.imag), case["id"]
        for got in (res.closed_form, closed):
            assert _bits(*case["rhs"]) == _bits(got.real, got.imag), case["id"]
        for got in (res.residual, abs(value - closed)):
            assert _bits(case["residual"]) == _bits(got / abs(closed)), case["id"]


def test_vanishing_closed_form_fails_the_sweep_after_the_draws_before_it(monkeypatch):
    genuine = clifford._closed_det
    calls = []

    def vanishing(n, x, alpha):
        calls.append(n)
        return 0.0 if calls.count(3) == 58 and n == 3 else genuine(n, x, alpha)

    want = verify.run_verify("clifford-det", seed=42).cases
    monkeypatch.setattr(clifford, "_closed_det", vanishing)
    cases = verify.run_verify("clifford-det", seed=42).cases
    assert cases[:-1] == want[:457]
    assert cases[-1]["id"] == "suite_error[clifford-det]"
    assert cases[-1]["params"]["error"] == "SingularityError"
    assert cases[-1]["params"]["message"] == "closed-form determinant vanishes at these parameters"
    assert not cases[-1]["passed"]
