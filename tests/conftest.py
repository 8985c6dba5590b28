"""Seed-42 verification results shared by every test of one session, the
tests' spherical oracle grid, and the one way a test starts a fresh
interpreter.

``verify all`` at seed 42 runs once in its worker pool (``pooled_report``)
and each suite runs once on its own (``serial_suites``).  Every in-process
assertion on a seed-42 suite case reads one of these.  They are read-only:
a test that pops or mutates anything copies it first.

A test starts a fresh interpreter (``fresh_python``) only where the process
is its subject: what a process loads, reads from its environment at import,
or prints through its real entry point.  ``fresh_reach`` is the one such run
of the four suites.  Command-line tests call ``cli.main`` in process.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fockspace import quadrature, verify

SEED = 42


@pytest.fixture(scope="session")
def pooled_report():
    """``run_verify("all", seed=42)``: the four suites, pooled."""
    return verify.run_verify("all", seed=SEED)


@pytest.fixture(scope="session")
def serial_suites():
    """{suite name: (cases, discrepancies)} of each suite called serially at seed 42."""
    return {name: suite(SEED, None, None) for name, suite in verify.SUITES.items()}


@pytest.fixture(scope="session")
def angular_rule():
    """``angular_rule(n_theta, n_phi)``: the product rule over the unit sphere,
    axes (theta, phi), Gauss-Legendre in cos(theta) and uniform in phi;
    weights sum to 4 pi.  The tests' oracle grid for spherical integrals."""

    def build(n_theta, n_phi):
        gl = quadrature.gauss_legendre(n_theta)
        theta, w_theta = np.arccos(gl.nodes[::-1]), gl.weights[::-1]
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        w_phi = np.full(n_phi, 2.0 * math.pi / n_phi)
        return quadrature.ProductRule((theta[:, None], phi[None, :]), w_theta[:, None] * w_phi)

    return build


def _run_python(argv, env=None, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True,
                          env=env, timeout=300)


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(argv, env=None, flags=())``: ``python *flags *argv`` in a
    fresh interpreter, its output captured as text.  ``env`` replaces the
    environment when given; the caller checks the return code."""
    return _run_python


# Prints, as JSON: every public function, those a seed-42 case calls, each
# suite's failed-case count, and the scipy and fockspace modules loaded after
# the suites and a 4096-node Laguerre rule.  The suites run serially in this
# one process, so an import made while a suite runs shows in sys.modules.
_REACH = """
import importlib, inspect, json, sys
import fockspace
from fockspace import quadrature, verify
public = {}
for module in fockspace.__all__:
    mod = importlib.import_module("fockspace." + module)
    for name in mod.__all__:
        function = inspect.unwrap(getattr(mod, name))  # through lru_cache
        if inspect.isfunction(function):
            public[function.__code__] = module + "." + name
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
results = {name: suite(42, None, None) for name, suite in verify.SUITES.items()}
sys.setprofile(None)
quadrature.gauss_laguerre(4096, 3.0)

def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[0] == package)

print(json.dumps({
    "public": sorted(public.values()),
    "reached": sorted(public[c] for c in called if c in public),
    "failed": {name: sum(not c["passed"] for c in cases)
               for name, (cases, _) in results.items()},
    "scipy": loaded("scipy"),
    "fockspace": loaded("fockspace"),
}))
"""


@pytest.fixture(scope="session")
def fresh_reach():
    """The four suites at seed 42, serially in one fresh interpreter under
    ``sys.setprofile``, so that no cache an earlier test filled hides a call:
    {"public", "reached", "failed", "scipy", "fockspace"} as ``_REACH``
    prints them."""
    proc = _run_python(["-c", _REACH])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
