"""Seed-42 verification results shared by every test of one session, and the
tests' spherical oracle grid.

``verify all`` at seed 42 runs once in its worker pool (``pooled_report``)
and each suite runs once on its own (``serial_suites``).  Every in-process
assertion on a seed-42 suite case reads one of these.  They are read-only:
a test that pops or mutates anything copies it first.
"""

import math

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
