"""Quadratic norm-squaring maps and the lifted 3-space integral."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockspace import quadmaps as qm, quadrature as qr, verify

finite = st.floats(min_value=-10.0, max_value=10.0)


def test_levi_civita_examples():
    xy, r = qm.levi_civita((1.0, 0.0))
    assert (*xy, r) == (0.0, 1.0, 1.0)
    xy, r = qm.levi_civita((1.0, 1.0))
    assert (*xy, r) == (2.0, 0.0, 2.0)


@given(u1=finite, u2=finite)
@settings(max_examples=200, deadline=None)
def test_levi_civita_norm_identity(u1, u2):
    (xp, yp), rp = qm.levi_civita((u1, u2))
    assert abs(xp * xp + yp * yp - rp * rp) <= 1e-13 * max(rp * rp, 1e-300)


def test_ks_map_examples():
    xyz, r = qm.ks_map((1.0, 0.0, 0.0, 0.0))
    assert np.allclose(xyz, [0, 0, 1]) and r == 1.0
    xyz, r = qm.ks_map((0.0, 0.0, 1.0, 0.0))
    assert np.allclose(xyz, [0, 0, -1]) and r == 1.0


@given(u=st.tuples(finite, finite, finite, finite))
@settings(max_examples=200, deadline=None)
def test_ks_norm_identity(u):
    xyz, r = qm.ks_map(u)
    assert abs(float(np.sum(xyz ** 2)) - r * r) <= 1e-13 * max(r * r, 1e-300)


def test_cayley_klein_origin_axis():
    assert np.allclose(qm.cayley_klein(1.0, 0.0, 0.0, 0.0), [1, 0, 0, 0])


def test_cayley_klein_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(30):
        r = float(rng.uniform(0.1, 4.0))
        th = float(rng.uniform(0.0, math.pi))
        ph = float(rng.uniform(0.0, 2 * math.pi))
        psi = float(rng.uniform(0.0, 2 * math.pi))
        xyz, rr = qm.ks_map(qm.cayley_klein(r, th, ph, psi))
        want = r * np.array([
            math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th),
        ])
        assert np.max(np.abs(xyz - want)) <= 1e-13 * r
        assert rr == pytest.approx(r, rel=1e-14)


def test_cayley_klein_fiber_invariance():
    base = qm.ks_map(qm.cayley_klein(2.0, 1.1, 0.6, 0.0))[0]
    for psi in np.linspace(0.0, 2 * math.pi, 32, endpoint=False):
        img = qm.ks_map(qm.cayley_klein(2.0, 1.1, 0.6, float(psi)))[0]
        assert np.max(np.abs(img - base)) <= 1e-13 * 2.0


def test_hurwitz_examples():
    x, r = qm.hurwitz_map((1, 0, 0, 0, 0, 0, 0, 0))
    assert np.allclose(x, [0, 0, 0, 0, 1]) and r == 1.0
    x, r = qm.hurwitz_map((0, 0, 0, 0, 1, 0, 0, 0))
    assert np.allclose(x, [0, 0, 0, 0, -1]) and r == 1.0


@given(u=st.tuples(*([finite] * 8)))
@settings(max_examples=200, deadline=None)
def test_hurwitz_norm_identity(u):
    x, r = qm.hurwitz_map(u)
    assert abs(float(np.sum(x ** 2)) - r * r) <= 1e-12 * max(r * r, 1e-300)


def test_fiber_angle_jacobian():
    # |det d(x, y, z, fiber)/du| = 8 |u|^2 by central differences
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = rng.normal(size=4)
        while abs(qm.ks_fiber_angle(u)) > 1.2:
            u = rng.normal(size=4)
        h = 1e-6 * max(1.0, float(np.linalg.norm(u)))
        jac = np.empty((4, 4))
        for k in range(4):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            fp = np.append(qm.ks_map(up)[0], qm.ks_fiber_angle(up))
            fm = np.append(qm.ks_map(um)[0], qm.ks_fiber_angle(um))
            jac[:, k] = (fp - fm) / (2 * h)
        expect = 8.0 * float(u @ u)
        assert abs(np.linalg.det(jac)) == pytest.approx(expect, rel=1e-8)


# ---------------------------------------------------------------------------
# the lifted integral
# ---------------------------------------------------------------------------

def exp_decay(points):
    return np.exp(-np.linalg.norm(points, axis=-1))


def gauss_decay(points):
    return np.exp(-np.sum(points ** 2, axis=-1))


def ball_indicator(points):
    return (np.sum(points ** 2, axis=-1) < 1.0).astype(float)


def test_ks_integral_exponential_quadrature():
    res = qm.ks_integral(exp_decay)
    assert res.value == pytest.approx(8.0 * math.pi, rel=5e-3)


def test_ks_integral_gaussian_quadrature():
    res = qm.ks_integral(gauss_decay)
    assert res.value == pytest.approx(math.pi ** 1.5, rel=5e-3)


N = qr.LATTICE_POINTS


def test_ks_integral_exponential_mc():
    res = qm.ks_integral(exp_decay, method="mc", seed=3)
    assert res.value == pytest.approx(8.0 * math.pi, rel=5e-3)
    assert abs(res.value - 8.0 * math.pi) < 4.0 * res.error


def test_ks_integral_ball_mc():
    res = qm.ks_integral(ball_indicator, method="mc", seed=4)
    assert res.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-2)


def test_ks_integral_mc_stderr_is_honest():
    # the verify suite's ks_integral_exp[mc] case over 40 seeds: the spread
    # of the estimates matches the error each run reports
    runs = [qm.ks_integral(exp_decay, method="mc", seed=s) for s in range(40)]
    spread = np.std([r.value for r in runs], ddof=1)
    assert 0.6 <= spread / np.mean([r.error for r in runs]) <= 1.6


def _whole_slab_hermite_lift(f, rule):
    # the lift evaluated one first-axis slab of npts^3 mesh points at a time
    t, w = rule.nodes, rule.weights
    npts = len(t)
    block = np.empty((npts ** 3, 4))
    block[:, 1:] = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    wtail = np.multiply.outer(np.multiply.outer(w, w), w).ravel()
    total = 0.0
    for i in range(npts):
        block[:, 0] = t[i]
        total += w[i] * float(np.sum(wtail * qm._lifted_values(f, block)))
    return 4.0 / math.pi * total


@pytest.mark.parametrize("f", [exp_decay, ball_indicator])
def test_ks_integral_blocks_match_the_whole_mesh(f, monkeypatch):
    # 13^4 and 28^4 mesh points are not multiples of the block; only the
    # summation order differs from the whole-slab lift
    for npts in (13, 28):
        rule = qr.gauss_hermite(npts)
        want = _whole_slab_hermite_lift(f, rule)
        assert qm._hermite_lift(f, rule) == pytest.approx(want, rel=1e-13, abs=1e-15)
    # the lattice rule uses whole shifts only: an odd sample count rounds up
    # to the next whole shift
    monkeypatch.setattr(qr, "DEFAULT_SAMPLES", 2 * N - 4321)
    odd = qm.ks_integral(f, method="mc", seed=6)
    monkeypatch.setattr(qr, "DEFAULT_SAMPLES", 2 * N)
    assert odd == qm.ks_integral(f, method="mc", seed=6)


def test_hermite_lift_working_set_is_bounded():
    # one first-axis slab of the 40^4 mesh at a time peaked at 5.1 MB of
    # traced allocations
    rule = qr.gauss_hermite(40)
    tracemalloc.start()
    try:
        qm._hermite_lift(exp_decay, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("npts", [100, 120])
def test_hermite_lift_far_corner_folds_the_weight_into_the_exponent(npts):
    # the outer and two middle nodes of a large rule: at the mesh corner
    # exp(r) overflows while the weight product is subnormal (100 nodes) or
    # 0 (120), which gave inf and NaN
    t, w = np.polynomial.hermite.hermgauss(npts)
    pick = [0, npts // 2 - 1, npts // 2, npts - 1]
    rule = qr.QuadratureRule(t[pick], w[pick])
    # e^-r times e^r is 1: the lift is 4/pi times the weighted sum of r
    want = 4.0 / math.pi * sum(
        sum(t[pick][list(i)] ** 2) * math.exp(sum(np.log(w[pick][list(i)])))
        for i in np.ndindex(4, 4, 4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qm._hermite_lift(exp_decay, rule)
    assert got == pytest.approx(want, rel=1e-13)


def _hermite_block():
    # the first block of rows that the 28-node lift hands to ks_map
    blocks = []
    genuine = qm.ks_map

    def recording(u):
        blocks.append(np.array(u))
        return genuine(u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qm, "ks_map", recording)
        qm._hermite_lift(exp_decay, qr.gauss_hermite(28))
    return blocks[0]


def _lattice_rows():
    # the 8191 Gaussian points of one shift of the lattice rule in R^4
    rows = []

    def recording(u):
        rows.append(np.array(u))
        return np.zeros(len(u))

    qr.mc_gaussian(4, recording, 2 * N, seed=42)
    return rows[0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("rows", [_hermite_block, _lattice_rows])
def test_row_sums_equal_the_axis_reductions(rows):
    # the explicit left-to-right sums against the np.sum / np.linalg.norm
    # forms they replaced, bit for bit
    u = rows()
    assert u.shape in ((7840, 4), (N, 4))
    xyz, r = qm.ks_map(u)
    u1, u2, u3, u4 = u.T
    want = np.stack([2.0 * (u1 * u3 + u2 * u4), 2.0 * (u1 * u4 - u2 * u3),
                     u1 ** 2 + u2 ** 2 - u3 ** 2 - u4 ** 2], axis=-1)
    assert np.array_equal(_bits(xyz), _bits(want))
    assert np.array_equal(_bits(r), _bits(np.sum(u * u, axis=-1)))
    # the maps suite's integrands exp(-|p|), exp(-|p|^2) and 1(|p|^2 < 1)
    assert np.array_equal(_bits(verify._exp_minus_r(xyz)),
                          _bits(np.exp(-np.linalg.norm(xyz, axis=-1))))
    assert np.array_equal(_bits(verify._r_squared(xyz)), _bits(np.sum(xyz ** 2, axis=-1)))
    assert np.array_equal(_bits(np.sqrt(verify._r_squared(xyz))),
                          _bits(np.linalg.norm(xyz, axis=-1)))


def test_ks_integral_error_estimate_reported():
    res = qm.ks_integral(exp_decay)
    assert res.error >= 0.0
    # e^-r lifts to a polynomial integrand, so the estimate is tiny
    assert res.error < 1e-10


def test_ks_integral_rejects_unknown_method():
    with pytest.raises(ValueError):
        qm.ks_integral(exp_decay, method="dartboard")
