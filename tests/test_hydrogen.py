"""Bound states, the sphere projection, generating functions, extraction."""

import cmath
import math
import warnings

import numpy as np
import pytest

from fockspace import hydrogen as hy, quadrature as qr, specfun as sf
from fockspace.errors import ConvergenceError, SingularityError


# ---------------------------------------------------------------------------
# closed-form wavefunctions
# ---------------------------------------------------------------------------

def test_ground_state_radial_closed_form():
    r = np.linspace(0.0, 10.0, 21)
    assert np.allclose(hy.radial_position(1, 0, r), 2.0 * np.exp(-r), rtol=1e-14)


def test_normalization_is_cached_and_still_refuses(monkeypatch):
    assert hy.normalization.cache_info().maxsize is not None
    n, l = 7, 3
    assert hy.normalization(n, l) == hy.normalization.__wrapped__(n, l)
    # an exception is not cached: a bad label raises on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            hy.normalization(2, 2)
    # so a one-point psi call builds one QuantumNumbers, not two
    built = []

    class Counting(sf.QuantumNumbers):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(hy, "QuantumNumbers", Counting)
    hy.psi_momentum(sf.QuantumNumbers(n, l, 1), (0.1, 0.2, 0.3))
    assert len(built) == 1


def test_radial_vanishes_at_origin_for_l_positive():
    assert hy.radial_position(2, 1, 0.0) == 0.0


def test_radial_normalization_quadrature():
    for (n, l) in [(1, 0), (3, 1), (4, 3), (6, 2)]:
        assert qr.radial_overlap(n, n, l) == pytest.approx(1.0, rel=1e-12)


def test_quadrature_oracles_check_their_labels():
    # each used to raise ZeroDivisionError at n = 0
    for oracle in (lambda: qr.radial_overlap(0, 1, 0), lambda: qr.radial_overlap(1, 0, 0),
                   lambda: qr.momentum_norm(0, 0)):
        with pytest.raises(ValueError, match="principal quantum number must be >= 1"):
            oracle()


def test_radial_orthogonality():
    assert abs(qr.radial_overlap(2, 4, 1)) < 1e-12
    assert abs(qr.radial_overlap(3, 5, 0)) < 1e-12


def test_radial_rejects_negative_radius():
    with pytest.raises(ValueError):
        hy.radial_position(1, 0, -0.1)
    # a non-integral n is refused up front, not normalized as if it were a state
    with pytest.raises(ValueError, match="quantum number n must be an integer"):
        hy.normalization(2.5, 1)


def test_radial_functions_underflow_to_zero_far_out():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hy.radial_position(3, 0, 1e200) == 0.0
        assert hy.radial_position(1, 0, 1.7e308) == 0.0
        assert hy.radial_momentum(3, 0, 1e160) == 0.0
        assert hy.radial_momentum(3, 2, math.inf) == 0.0
        qn = sf.QuantumNumbers(2, 1, 0)
        for point in ((1e200, 0.0, 0.0), (0.0, 0.0, 1e200), (1e200, 1e200, 1e200)):
            assert hy.psi_position(qn, point) == 0.0
            assert hy.psi_momentum(qn, point) == 0.0
        # values in range keep their bits, and NaN stays NaN
        r = hy.radial_position(3, 0, [2.5, 1e200, math.nan])
        assert r[0] == hy.radial_position(3, 0, [2.5])[0] and r[1] == 0.0 and math.isnan(r[2])
        p = hy.radial_momentum(3, 1, [0.4, 1e160, math.nan])
        assert p[0] == hy.radial_momentum(3, 1, [0.4])[0] and p[1] == 0.0
        assert np.isnan(p[2])


def test_radial_position_in_logs_where_the_product_overflows():
    # R_(200,100): x^100 overflows near x = 1300, where R is about 1e-64
    # (mpmath at 50 digits: -7.47943839015507e-65 at r = 1.3e5)
    assert hy.radial_position(200, 100, 1.3e5) == pytest.approx(-7.47943839015507e-65, rel=1e-12)
    x = np.array([1.0, 40.0, 600.0])
    with np.errstate(under="ignore"):
        direct = hy.radial_position(200, 100, 100.0 * x)
    assert np.allclose(hy._radial_position_logs(200, 100, x), direct, rtol=1e-11, atol=0.0)


def test_radial_momentum_in_logs_where_a_factor_leaves_the_double_range():
    # (200, 150): (p^2 + delta^2)^152 underflows at p = 0.001; (300, 180): l!
    # overflows.  mpmath at 50 digits gives the real parts below, and
    # 8.8e-340 at (300, 180, 1.0), which underflows to 0.
    assert hy.radial_momentum(200, 150, 0.001).real == pytest.approx(2.64215789773e-30, rel=1e-10)
    assert hy.radial_momentum(300, 180, 0.001).real == pytest.approx(-88.9394814366, rel=1e-10)
    assert hy.radial_momentum(300, 180, 1.0) == 0.0
    vals = hy.radial_momentum(200, 150, [0.001, 0.01])
    assert vals[0] == hy.radial_momentum(200, 150, 0.001)
    assert vals[1] == hy.radial_momentum(200, 150, 0.01)
    assert vals[1].real == pytest.approx(699.76064072, rel=1e-10)
    # where the direct product is finite, the sum of logs agrees with it
    p = np.array([0.01, 0.03, 0.1])
    x = (p ** 2 - 30.0 ** -2) / (p ** 2 + 30.0 ** -2)
    direct = hy.radial_momentum(30, 20, p)
    assert np.all(direct != 0)
    assert np.allclose(hy._radial_momentum_logs(30, 20, p, x), direct, rtol=1e-12, atol=0.0)


def test_radial_node_count():
    for (n, l) in [(1, 0), (3, 0), (4, 1), (5, 2)]:
        grid = np.linspace(1e-6, 60.0 * n, 4000 * n)
        vals = hy.radial_position(n, l, grid)
        signs = np.sign(vals)
        signs = signs[signs != 0]
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == n - l - 1


def test_psi_position_origin():
    qn = sf.QuantumNumbers(1, 0, 0)
    assert hy.psi_position(qn, (0, 0, 0)) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert hy.psi_position(sf.QuantumNumbers(2, 1, 0), (0, 0, 0)) == 0.0


def test_psi_position_axis_node():
    # Y_11 vanishes on the z axis
    assert hy.psi_position(sf.QuantumNumbers(2, 1, 1), (0, 0, 1.0)) == 0.0


def test_psi_position_full_norm(angular_rule):
    # |psi_210|^2 over space: radial overlap x angular normalization = 1
    qn = sf.QuantumNumbers(2, 1, 0)
    rule = angular_rule(24, 25)
    y = sf.spherical_harmonic(1, 0, *rule.nodes)
    ang = float(np.sum(rule.weights * np.abs(y) ** 2))
    assert ang * qr.radial_overlap(2, 2, 1) == pytest.approx(1.0, rel=1e-10)
    del qn


def test_momentum_amplitude_ground_state():
    qn = sf.QuantumNumbers(1, 0, 0)
    val = hy.psi_momentum(qn, (0.0, 0.0, 0.0))
    assert abs(val) == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-14)
    # known closed form at general p
    p = 0.75
    want = 2.0 * math.sqrt(2.0) / math.pi / (1.0 + p * p) ** 2
    assert abs(hy.psi_momentum(qn, (0, 0, p))) == pytest.approx(want, rel=1e-13)


def test_momentum_vanishes_at_origin_for_l_positive():
    assert hy.psi_momentum(sf.QuantumNumbers(3, 2, 1), (0, 0, 0)) == 0.0


def test_momentum_gegenbauer_argument_at_fock_equator():
    # |p| = delta puts the Gegenbauer argument at 0
    n = 3
    delta = 1.0 / n
    x = (delta ** 2 - delta ** 2) / (delta ** 2 + delta ** 2)
    assert x == 0.0
    val = hy.radial_momentum(n, 1, delta)
    expect = (
        1j * hy.normalization(n, 1) / math.sqrt(2 * math.pi) * n
        * (4 * delta) ** 2 / (2 * delta ** 2) ** 3
        * sf.gegenbauer(1, 2.0, 0.0) * delta
    )
    assert val == pytest.approx(expect)


def test_energy_values():
    assert hy.energy(1) == -0.5
    assert hy.energy(2) == -0.125
    for n in (1, 2, 3, 7):
        assert hy.energy(n) / hy.energy(1) == pytest.approx(1.0 / n ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        hy.energy(0)
    with pytest.raises(ValueError, match="quantum number n must be an integer"):
        hy.energy(2.5)


# ---------------------------------------------------------------------------
# Fock projection
# ---------------------------------------------------------------------------

def test_fock_map_equator_and_pole():
    fp = hy.fock_map((0.0, 0.0, 1.0), 1.0)
    assert np.allclose(fp.y, (0, 0, 1, 0), atol=1e-15)
    assert fp.x == 0.0
    south = hy.fock_map((0.0, 0.0, 0.0), 0.37)
    assert south.y == (0.0, 0.0, 0.0, -1.0)


def test_fock_map_unit_norm_random():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        delta = rng.uniform(0.1, 3.0)
        fp = hy.fock_map(p, delta)
        assert sum(c * c for c in fp.y) == pytest.approx(1.0, abs=1e-13)


def test_fock_point_validation():
    with pytest.raises(ValueError):
        hy.FockPoint((1.0, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        hy.fock_map((0, 0, 1), 0.0)
    with pytest.raises(ValueError):
        hy.FockPoint((0.0, 0.0, 0.0, math.nan))


def test_fock_map_where_p_squared_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = hy.fock_map((0.0, 0.0, 5e307), 1.0)
        assert far.y[3] == 1.0 and far.y[:2] == (0.0, 0.0)
        assert far.y[2] == pytest.approx(2.0 / 5e307, rel=1e-15)
        assert hy.fock_map((3e200, 0.0, 4e200), 5e200).y == pytest.approx((0.6, 0.0, 0.8, 0.0), abs=1e-15)
        assert hy.fock_map((0.0, 0.0, 0.0), 1e200).y == (0.0, 0.0, 0.0, -1.0)


def test_fock_map_where_p_squared_plus_delta_squared_underflows():
    # below the normal doubles p^2 + delta^2 loses its bits, and at p = 0,
    # delta < 1e-162 it is 0; y is invariant under scaling (p, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hy.fock_map((0.0, 0.0, 0.0), 1e-200).y == (0.0, 0.0, 0.0, -1.0)
        assert hy.fock_map((0.0, 0.0, 1e-160), 1e-160).y == (0.0, 0.0, 1.0, 0.0)
        assert hy.fock_map((3e-170, 0.0, 4e-170), 5e-170).y == pytest.approx(
            (0.6, 0.0, 0.8, 0.0), abs=1e-15)
        near = hy.fock_map((0.0, 0.0, 1.0), 1e-200)
        assert near.y[3] == 1.0 and near.y[2] == pytest.approx(2e-200, rel=1e-15)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_genfunc_params_validation():
    # every generating function refuses |z| >= 1, also for one bad grid entry
    for z in (1.0, -1.0, 0.6 + 0.8j, np.array([0.2, 1.5])):
        with pytest.raises(ValueError):
            hy.genfunc_position(z, 0.0, 0.0, 0.0, (0.1, 0.2, 0.3), 1.0)
        with pytest.raises(ValueError):
            hy.genfunc_momentum_regulated(z, 0.0, 0.0, 0.0, 0.0, (0.1, 0.2, 0.3), 1.0)
        with pytest.raises(ValueError):
            hy.genfunc_momentum(z, 0.0, 0.0, 0.0, (0.1, 0.2, 0.3), 1.0)


def test_genfunc_position_vanishes_at_z_zero():
    assert hy.genfunc_position(0.0, 0.7, 0.3, 0.4, (1.0, 2.0, -0.5), 0.5) == 0.0


def test_genfunc_position_alpha_off_reduction():
    # alpha = 0 (and null pair) leaves the pure radial exponential
    z, delta = 0.4, 0.5
    rvec = (0.6, -1.1, 0.3)
    r = float(np.linalg.norm(rvec))
    got = hy.genfunc_position(z, 0.0, 0.0, 0.0, rvec, delta)
    want = z / (1 - z) ** 2 * math.exp(-2 * delta * r * (1 + z) / (2 * (1 - z)))
    assert got == pytest.approx(want, rel=1e-14)


def test_genfunc_momentum_regulated_alpha_beta_off():
    z, delta = 0.3, 1.0
    pvec = (0.2, 0.1, -0.4)
    p2 = float(np.dot(pvec, pvec))
    got = hy.genfunc_momentum_regulated(z, 0.0, 0.0, 0.0, 0.0, pvec, delta)
    want = (2.0 / math.sqrt(2 * math.pi)) * z / ((delta * (1 + z)) ** 2 + (1 - z) ** 2 * p2)
    assert got == pytest.approx(want, rel=1e-14)


def test_genfunc_momentum_beta_derivative_link():
    rng = np.random.default_rng(12)
    for _ in range(5):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        al = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        xi = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        eta = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        pvec = rng.uniform(-1.5, 1.5, size=3)
        delta = rng.uniform(0.3, 1.5)
        h = 1e-5
        gp = hy.genfunc_momentum_regulated(z, al, xi, eta, +h, pvec, delta)
        gm = hy.genfunc_momentum_regulated(z, al, xi, eta, -h, pvec, delta)
        fd = -(gp - gm) / (2 * h)
        exact = hy.genfunc_momentum(z, al, xi, eta, pvec, delta)
        assert abs(fd - exact) / abs(exact) < 1e-7


def test_genfunc_momentum_denominator_identity():
    # alpha = 0 denominator equals (p^2+delta^2)^2 (1 - 2 z x + z^2)^2 with x
    # the Fock variable
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        delta = rng.uniform(0.2, 2.0)
        p2 = rng.uniform(0.01, 9.0)
        lhs = (delta * (1 + z)) ** 2 + (1 - z) ** 2 * p2
        x = (p2 - delta ** 2) / (p2 + delta ** 2)
        rhs = (p2 + delta ** 2) * (1 - 2 * z * x + z ** 2)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_genfunc_momentum_singularity_reported():
    # z = 0 would also make the numerator vanish; pick the actual pole:
    # (delta(1+z))^2 + (1-z)^2 p^2 = 0 at p = i-like values is unreachable
    # for real p, but beta can cancel the delta term at z real
    with pytest.raises(SingularityError):
        # delta = 0 makes the denominator vanish at p = 0
        hy.genfunc_momentum_regulated(0.0, 0.0, 0, 0, 0.0, (0.0, 0.0, 0.0), 0.0)
    with pytest.raises(SingularityError):
        hy.genfunc_momentum(0.0, 0.0, 0, 0, (0.0, 0.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

EXTRACT_STATES = [(1, 0, 0), (2, 1, 0), (3, 1, 1)]


@pytest.mark.parametrize("n,l,m", EXTRACT_STATES)
def test_extraction_position_reproduces_psi(n, l, m):
    qn = sf.QuantumNumbers(n, l, m)
    coeff = hy.extract_coefficient("position", qn, n)
    scale = hy.extraction_scale(n, l)
    rng = np.random.default_rng(100 + 10 * n + l)
    pts = rng.uniform(-2.0, 2.0, size=(5, 3))
    got = np.array([coeff(pt) for pt in pts]) / scale
    want = np.array([hy.psi_position(qn, pt) for pt in pts])
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("n,l,m", EXTRACT_STATES)
def test_extraction_momentum_reproduces_psi_up_to_unit(n, l, m):
    # the extracted transform matches the closed form up to the constant
    # phase unit (-1)^l (the i^l-vs-(-i)^l printing offset)
    qn = sf.QuantumNumbers(n, l, m)
    coeff = hy.extract_coefficient("momentum", qn, n)
    scale = hy.extraction_scale(n, l)
    rng = np.random.default_rng(200 + 10 * n + l)
    pts = rng.uniform(-1.2, 1.2, size=(5, 3))
    got = np.array([coeff(pt) for pt in pts]) / scale
    want = np.array([hy.psi_momentum(qn, pt) for pt in pts])
    big = np.abs(want) > 1e-3 * np.max(np.abs(want))
    units = got[big] / want[big]
    unit = complex(np.mean(units))
    assert abs(abs(unit) - 1.0) < 1e-6
    assert np.max(np.abs(units - unit)) < 1e-6
    assert unit == pytest.approx((-1.0 + 0j) ** l, rel=1e-6)
    assert np.max(np.abs(got - unit * want)) <= 1e-6 * np.max(np.abs(want))


def _reference_extraction(kind, qn, n0, point, nodes=(48, 24, 24, 24)):
    """The coefficient and top-bin residual from one weighted copy of the grid.

    The product rule written out in full, with no FFT: G times every circle's
    weight node^(-degree) / count at every node, summed for the z degree n,
    and for each top z degree k = N-4 ... N-1 (times radius^(k-n)).
    """
    n, l, m = qn
    zc, ac, xic, etac = (
        r * np.exp(2j * math.pi * np.arange(c) / c) for r, c in zip(hy.EXTRACTION_RADII, nodes)
    )
    genfunc = hy.genfunc_position if kind == "position" else hy.genfunc_momentum
    g = genfunc(zc[:, None, None, None], ac[None, :, None, None], xic[None, None, :, None],
                etac[None, None, None, :], point, 1.0 / n0)
    weighted = np.einsum(
        "zaxe,a,x,e->zaxe", g, ac ** (-l) / nodes[1],
        xic ** (-(l + m)) / nodes[2], etac ** (-(l - m)) / nodes[3],
    )
    radius = hy.EXTRACTION_RADII[0]
    value = complex(np.sum(np.einsum("zaxe,z->zaxe", weighted, zc ** (-n) / nodes[0])))
    top = [abs(complex(np.sum(np.einsum("zaxe,z->zaxe", weighted, zc ** (-k) / nodes[0]))))
           * radius ** (k - n) for k in range(nodes[0] - 4, nodes[0])]
    phi_norm = math.sqrt(math.factorial(l + m) * math.factorial(l - m))
    return value * phi_norm, max(top)


def _extraction_residual(monkeypatch, kind, qn, n0, point, **grid):
    # with a zero bound the guard trips on every point and reports its residual
    with monkeypatch.context() as patch, pytest.raises(ConvergenceError) as err:
        patch.setattr(hy, "_RTOL", 0.0)
        patch.setattr(hy, "_ATOL", 0.0)
        hy.extract_coefficient(kind, qn, n0, **grid)(point)
    return err.value.residual


STATES_TO_N3 = [(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]


def _check_against_the_weighted_grid_sum(kind, sized, monkeypatch):
    # the slab contraction and the FFT are the full weighted sum reassociated:
    # value and top-bin residual agree with it to rounding, relative to the
    # largest coefficient in each state's sample
    for n, l, m in STATES_TO_N3:
        grid = {"nodes": hy.extraction_nodes(l)} if sized else {}
        rng = np.random.default_rng(300 + 100 * n + 10 * l + m)
        pts = rng.uniform(-1.5, 1.5, size=(2, 3))
        coeff = hy.extract_coefficient(kind, (n, l, m), n, **grid)
        got = np.array([coeff(pt) for pt in pts])
        want, want_resid = zip(*(_reference_extraction(kind, (n, l, m), n, pt, **grid)
                                 for pt in pts))
        resid = [_extraction_residual(monkeypatch, kind, (n, l, m), n, pt, **grid)
                 for pt in pts]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - np.array(want))) <= 1e-12 * scale, (n, l, m)
        assert np.max(np.abs(np.subtract(resid, want_resid))) <= 1e-12 * scale, (n, l, m)


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_extraction_matches_the_weighted_grid_sum(kind, monkeypatch):
    _check_against_the_weighted_grid_sum(kind, False, monkeypatch)


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_sized_extraction_matches_the_weighted_grid_sum(kind, monkeypatch):
    _check_against_the_weighted_grid_sum(kind, True, monkeypatch)


def test_extraction_nodes_follow_the_degree_rule():
    # k = max(4, 4l + 2) > 2l: exact in xi and eta
    assert [hy.extraction_nodes(l) for l in range(4)] == [
        (48, 24, 4, 4), (48, 24, 6, 6), (48, 24, 10, 10), (48, 24, 14, 14)]


STATES_TO_N4 = [(n, l, m) for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)]


@pytest.mark.parametrize("kind", ["position", "momentum"])
def test_sized_extraction_reproduces_psi_to_n4(kind):
    # every state with n <= 4 on the suite's grid, against the closed form
    # (times (-1)^l on the momentum side); no point trips the guard
    spread = 2.0 if kind == "position" else 1.2  # the suite's sampling boxes
    psi = hy.psi_position if kind == "position" else hy.psi_momentum
    for n, l, m in STATES_TO_N4:
        qn = sf.QuantumNumbers(n, l, m)
        rng = np.random.default_rng(500 + 100 * n + 10 * l + m)
        pts = rng.uniform(-spread, spread, size=(3, 3))
        coeff = hy.extract_coefficient(kind, qn, n, nodes=hy.extraction_nodes(l))
        got = np.array([coeff(pt) for pt in pts]) / hy.extraction_scale(n, l)
        unit = (-1.0) ** l if kind == "momentum" else 1.0
        want = unit * np.array([psi(qn, pt) for pt in pts])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, l, m)


def test_extraction_where_the_half_rule_tripped():
    # the half rule raised here although the full rule matched psi
    qn = sf.QuantumNumbers(4, 3, -1)
    point = (-0.593, 0.138, 0.643)
    want = -hy.psi_momentum(qn, point)
    for nodes in (hy.extraction_nodes(3), (48, 24, 24, 24)):
        got = hy.extract_coefficient("momentum", qn, 4, nodes=nodes)(point)
        assert abs(got / hy.extraction_scale(4, 3) - want) <= 1e-12 * abs(want), nodes


def test_extraction_zero_for_l_at_least_n():
    coeff = hy.extract_coefficient("momentum", (2, 2, 0), 2)
    assert abs(coeff((0.3, 0.1, -0.2))) < 1e-10
    coeff = hy.extract_coefficient("position", (1, 1, 0), 1)
    assert abs(coeff((0.3, 0.1, -0.2))) < 1e-10


def test_extraction_refuses_non_integral_labels():
    for qn, label in (((2, 1.5, 0), "l"), ((2, 1, 0.5), "m"), ((2.5, 1, 0), "n")):
        with pytest.raises(ValueError, match=f"quantum number {label} must be an integer"):
            hy.extract_coefficient("position", qn, 2, nodes=(48, 24, 10, 10))
    # l >= n stays accepted: its coefficient is 0
    hy.extract_coefficient("position", (2, 2, 0), 2, nodes=(48, 24, 10, 10))


def test_extraction_refuses_a_non_positive_n0():
    # n0 = 0 divided by zero at the first point; n0 = -1 returned 1.4538 for
    # (1, 0, 0), a delta that fock_map refuses
    for n0 in (0, -1, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n0 must be finite and positive"):
            hy.extract_coefficient("position", (1, 0, 0), n0)
    # a non-integral n0 stays allowed
    value = hy.extract_coefficient("position", (1, 0, 0), 1.5)((0.3, 0.1, -0.2))
    assert cmath.isfinite(value)


def test_extraction_convergence_guard():
    # 8 z nodes alias degree n + 8 into the value; the top bins say so
    point = (0.5, 0.2, 0.1)
    with pytest.raises(ConvergenceError) as err:
        coeff = hy.extract_coefficient("momentum", (3, 1, 1), 3, nodes=(8, 4, 4, 4))
        coeff(point)
    _, want = _reference_extraction("momentum", (3, 1, 1), 3, point, nodes=(8, 4, 4, 4))
    assert err.value.residual == pytest.approx(want, rel=1e-12)
    assert err.value.residual > 1.0


def test_extraction_argument_validation():
    with pytest.raises(ValueError):
        hy.extract_coefficient("spectral", (1, 0, 0), 1)
    with pytest.raises(ValueError):
        hy.extract_coefficient("position", (1, 0, 5), 1)
    # no z bin for n apart from the top 4, an inexact alpha, xi or eta rule
    for qn, nodes in (((3, 1, 1), (7, 24, 24, 24)), ((3, 1, 1), (8, 2, 4, 4)),
                      ((3, 2, 0), (48, 24, 4, 24)), ((3, 2, 0), (48, 24, 24, 4))):
        with pytest.raises(ValueError):
            hy.extract_coefficient("position", qn, 3, nodes=nodes)
    # odd node counts are accepted
    hy.extract_coefficient("position", (1, 0, 0), 1, nodes=(47, 5, 3, 3))

