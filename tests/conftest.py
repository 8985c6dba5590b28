"""Seed-42 verification results shared by every test of one session.

``verify all`` at seed 42 runs once in its worker pool (``pooled_report``)
and each suite runs once on its own (``serial_suites``).  Every in-process
assertion on a seed-42 suite case reads one of these.  They are read-only:
a test that pops or mutates anything copies it first.
"""

import pytest

from fockspace import verify

SEED = 42


@pytest.fixture(scope="session")
def pooled_report():
    """``run_verify("all", seed=42)``: the four suites, pooled."""
    return verify.run_verify("all", seed=SEED)


@pytest.fixture(scope="session")
def serial_suites():
    """{suite name: (cases, discrepancies)} of each suite called serially at seed 42."""
    return {name: suite(SEED, None, None) for name, suite in verify.SUITES.items()}
