"""Exact-count self-check of the benchmark's tracing.

    python3 -m pytest perfbench/test_counts.py

Two traced runs with the same seed must report identical counts (every
per-layer metric whose unit is ``count``: calls, rule builds and keys,
recurrence steps, Monte Carlo samples, mapped and Cauchy grid points).  At
seed 42 the ``verify-all`` counts are pinned to the values measured when the
benchmark was defined.  Takes about two minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"

VERIFY_ALL_AT_42 = {
    "quadrature.rule_builds": 588,
    "quadrature.rule_keys": 15,
    "quadrature.rule_builds.legendre": 423,
    "quadrature.rule_builds.laguerre": 161,
    "quadrature.rule_builds.hermite": 3,
    "quadrature.rule_builds.chebyshev2": 1,
    "specfun.gegenbauer.calls": 13_889,
    "specfun.gegenbauer.recurrence_steps": 274_666,
    "specfun.spherical_harmonic.calls": 11_886,
    "verify.cases": 1187,
    "verify.cases_failed": 0,
}


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=RUN.parent.parent, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["verify-all", "cli-short", "library-sweep"])
def test_two_traced_runs_give_identical_counts(workload):
    first = traced_counts(workload, 42)
    second = traced_counts(workload, 42)
    assert first == second
    assert any(first.values())
    if workload == "verify-all":
        assert {k: first[k] for k in VERIFY_ALL_AT_42} == VERIFY_ALL_AT_42
