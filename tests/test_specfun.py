"""Special-function kernels against independent oracles.

Oracles used here are deliberately different code paths from the library:
explicit finite sums with log-gamma stabilization, scipy's Legendre/Bessel
routines, sympy's exact 3j symbols, and matrix exponentials for the
D-matrices.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, lpmv, spherical_jn
from scipy.linalg import expm

from fockspace import hydrogen as hy, specfun as sf


# ---------------------------------------------------------------------------
# series oracles
# ---------------------------------------------------------------------------

def laguerre_series(k, a, x):
    # L_k^(a)(x) = sum_i (-1)^i binom(k+a, k-i) x^i / i!; also returns the
    # sum of |terms|, which bounds the oracle's own cancellation error
    total = 0.0
    magnitude = 0.0
    for i in range(k + 1):
        logb = gammaln(k + a + 1.0) - gammaln(k - i + 1.0) - gammaln(a + i + 1.0)
        term = math.exp(logb - gammaln(i + 1.0)) * x ** i
        total += (-1.0) ** i * term
        magnitude += term
    return total, magnitude


def gegenbauer_series(m, a, x):
    # C_m^(a)(x) = sum_i (-1)^i Gamma(m-i+a) (2x)^(m-2i) / (Gamma(a) i! (m-2i)!)
    total = 0.0
    magnitude = 0.0
    for i in range(m // 2 + 1):
        coef = math.exp(gammaln(m - i + a) - gammaln(a) - gammaln(i + 1.0)
                        - gammaln(m - 2 * i + 1.0))
        term = coef * abs(2.0 * x) ** (m - 2 * i)
        total += (-1.0) ** i * coef * (2.0 * x) ** (m - 2 * i)
        magnitude += term
    return total, magnitude


def test_lgamma_matches_scipy_gammaln_on_half_integers():
    # the library's log-gamma calls take integers and half-integers (verify
    # all uses 0.5 .. 65) and exponentiate the result, so an absolute error
    # in the log is the relative error of the value; near the zeros at 1 and
    # 2 the log itself carries no relative accuracy, hence max(1, |.|)
    for x in (0.5 * k for k in range(1, 401)):
        want = gammaln(x)
        assert abs(math.lgamma(x) - want) <= 1e-15 * max(1.0, abs(want)), x


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def test_laguerre_degree_zero_is_one():
    assert sf.laguerre(0, 2.5, 17.3) == 1.0


def test_laguerre_degree_one_closed_form():
    assert sf.laguerre(1, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert sf.laguerre(1, 0.5, 0.2) == pytest.approx(1.5 - 0.2, rel=1e-15)


def test_laguerre_at_zero_is_binomial():
    # L_k^(a)(0) = binom(k+a, k)
    assert sf.laguerre(2, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    for k, a in [(3, 2.0), (5, 0.5), (8, 3.0)]:
        want = math.exp(gammaln(k + a + 1) - gammaln(k + 1) - gammaln(a + 1))
        assert sf.laguerre(k, a, 0.0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("k,a", [(2, 0.0), (4, 1.0), (7, 2.5), (12, 3.0)])
def test_laguerre_matches_series_oracle(k, a):
    for x in np.linspace(0.0, 30.0, 7):
        want, magnitude = laguerre_series(k, a, float(x))
        got = sf.laguerre(k, a, float(x))
        assert abs(got - want) <= 1e-13 * magnitude + 1e-12 * abs(want)


def test_laguerre_recurrence_residual_sweep():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 50))
        a = float(rng.uniform(0.0, 10.0))
        x = float(rng.uniform(0.0, 50.0))
        lm1 = sf.laguerre(k - 1, a, x)
        l0 = sf.laguerre(k, a, x)
        lp1 = sf.laguerre(k + 1, a, x)
        resid = abs((k + 1) * lp1 - ((2 * k + a + 1 - x) * l0 - (k + a) * lm1))
        assert resid <= 1e-12 * max(1.0, abs(l0), abs(lp1))


def test_laguerre_rejects_bad_superscript():
    with pytest.raises(ValueError):
        sf.laguerre(2, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Gegenbauer
# ---------------------------------------------------------------------------

def test_gegenbauer_degree_zero_and_negative():
    assert sf.gegenbauer(0, 1.7, 0.3) == 1.0
    assert sf.gegenbauer(-1, 1.7, 0.3) == 0.0
    assert sf.gegenbauer(-3, 0.5, -0.9) == 0.0


def test_gegenbauer_order_one_degree_two():
    for x in np.linspace(-1, 1, 11):
        assert sf.gegenbauer(2, 1.0, float(x)) == pytest.approx(4 * x * x - 1, rel=1e-14, abs=1e-14)


def test_gegenbauer_at_one():
    # C_m^(a)(1) = Gamma(m + 2a) / (m! Gamma(2a))
    for m, a in [(3, 1.0), (6, 0.75), (10, 2.0)]:
        want = math.exp(gammaln(m + 2 * a) - gammaln(m + 1.0) - gammaln(2 * a))
        assert sf.gegenbauer(m, a, 1.0) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m,a", [(3, 0.5), (5, 1.0), (8, 2.5), (13, 4.0)])
def test_gegenbauer_matches_series_oracle(m, a):
    for x in np.linspace(-1.0, 1.0, 9):
        want, magnitude = gegenbauer_series(m, a, float(x))
        got = sf.gegenbauer(m, a, float(x))
        assert abs(got - want) <= 1e-13 * magnitude + 1e-12 * abs(want)


@given(
    m=st.integers(min_value=0, max_value=30),
    a=st.floats(min_value=-0.4, max_value=8.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_gegenbauer_parity(m, a, x):
    plus = sf.gegenbauer(m, a, x)
    minus = sf.gegenbauer(m, a, -x)
    assert minus == pytest.approx((-1.0) ** m * plus, rel=1e-13, abs=1e-300)


def test_gegenbauer_rejects_bad_order():
    with pytest.raises(ValueError):
        sf.gegenbauer(2, -0.5, 0.1)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def test_sph_harm_monopole():
    assert sf.spherical_harmonic(0, 0, 1.234, -0.7) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi)
    )


def test_sph_harm_dipole_closed_form():
    th, ph = 0.8, 2.1
    assert sf.spherical_harmonic(1, 0, th, ph) == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(th)
    )
    assert sf.spherical_harmonic(1, 1, th, ph) == pytest.approx(
        -math.sqrt(3 / (8 * math.pi)) * math.sin(th) * np.exp(1j * ph)
    )


@pytest.mark.parametrize("l,m", [(2, 1), (3, -2), (5, 4), (6, 0), (8, -8)])
def test_sph_harm_against_legendre_oracle(l, m, subtests=None):
    # oracle: explicit normalization times scipy's lpmv (Condon-Shortley inside)
    rng = np.random.default_rng(l * 10 + m)
    for _ in range(5):
        th = float(rng.uniform(0.05, math.pi - 0.05))
        ph = float(rng.uniform(0.0, 2 * math.pi))
        ma = abs(m)
        norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                         * math.exp(gammaln(l - ma + 1.0) - gammaln(l + ma + 1.0)))
        want = norm * lpmv(ma, l, math.cos(th)) * np.exp(1j * ma * ph)
        if m < 0:
            want = (-1.0) ** ma * np.conj(want)
        assert sf.spherical_harmonic(l, m, th, ph) == pytest.approx(complex(want), rel=1e-11)


def test_sph_harm_orthonormal_gram():
    from fockspace import quadrature as qr

    rule = qr.angular_rule(16, 16)
    pairs = [(l, m) for l in range(7) for m in range(-l, l + 1)]
    theta = rule.theta[:, None]
    phi = rule.phi[None, :]
    w = rule.theta_weights[:, None] * rule.phi_weight
    fields = [sf.spherical_harmonic(l, m, theta, phi) for (l, m) in pairs]
    gram = np.array([
        [np.sum(w * np.conj(fi) * fj) for fj in fields] for fi in fields
    ])
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-10


def test_sph_harm_rejects_bad_m():
    with pytest.raises(ValueError):
        sf.spherical_harmonic(1, 2, 0.3, 0.4)
    # a half-integer m used to be truncated to the m = 0 harmonic
    with pytest.raises(ValueError, match="m must be an integer"):
        sf.spherical_harmonic(1, 0.5, 0.3, 0.4)
    assert sf.spherical_harmonic(np.int64(1), np.int64(-1), 0.3, 0.4) == (
        sf.spherical_harmonic(1, -1, 0.3, 0.4))


# ---------------------------------------------------------------------------
# degree ladders against the single-degree loops they replace
# ---------------------------------------------------------------------------

def gegenbauer_loop(m, a, x):
    # one degree, recurrence restarted from C_0: the arithmetic every rung of
    # the ladder must repeat exactly
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * a * x
    for i in range(1, m):
        prev, cur = cur, (2.0 * x * (i + a) * cur - (i + 2.0 * a - 1.0) * prev) / (i + 1)
    return cur if cur.ndim else float(cur)


def harmonic_loop(l, m, theta, phi):
    # one (l, m), Legendre ascent restarted from P_0^0
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    costheta, sintheta = np.cos(theta), np.sin(theta)
    p = np.full_like(costheta, 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(1, ma + 1):
        p = -math.sqrt((2 * k + 1) / (2.0 * k)) * sintheta * p
    if l > ma:
        pmm, p = p, math.sqrt(2 * ma + 3.0) * costheta * p
        for ll in range(ma + 2, l + 1):
            c0 = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - ma * ma))
            c1 = math.sqrt(((ll - 1.0) ** 2 - ma * ma) / (4.0 * (ll - 1.0) ** 2 - 1.0))
            pmm, p = p, c0 * (costheta * p - c1 * pmm)
    y = p * np.exp(1j * ma * phi)
    if m < 0:
        y = (-1.0) ** ma * np.conjugate(y)
    return y if y.ndim else complex(y)


def same_bits(got, want):
    """Same type, shape and IEEE bit pattern (so -0.0 != 0.0 and nan == nan)."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


unit_x = st.one_of(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([-1.0, 1.0]))
gegenbauer_order = st.one_of(
    st.floats(min_value=-0.5, max_value=8.0, exclude_min=True),
    st.sampled_from([-0.5 + 1e-15, -0.5 + 1e-9, -0.49, 0.0, 0.5, 1.0]),
)
polar = st.one_of(st.floats(min_value=0.0, max_value=math.pi), st.sampled_from([0.0, math.pi]))
azimuth = st.floats(min_value=-math.pi, max_value=math.pi)


@given(a=gegenbauer_order, x=st.one_of(unit_x, st.lists(unit_x, min_size=1, max_size=6)),
       depth=st.integers(min_value=0, max_value=40))
@settings(max_examples=120, deadline=None)
def test_gegenbauer_ladder_rungs_are_the_single_degree_values(a, x, depth):
    rungs = sf.gegenbauer_ladder(a, x)
    for m in range(depth + 1):
        rung = next(rungs)
        assert same_bits(rung, sf.gegenbauer(m, a, x))
        assert same_bits(rung, gegenbauer_loop(m, a, x))
    for m in (-1, -depth - 1):
        want = np.zeros_like(np.asarray(x, dtype=float))
        assert same_bits(sf.gegenbauer(m, a, x), want if want.ndim else 0.0)


def test_gegenbauer_ladder_validates_before_the_first_rung():
    with pytest.raises(ValueError):
        sf.gegenbauer_ladder(-0.5, 0.3)
    with pytest.raises(ValueError):
        sf.gegenbauer(-1, -0.5, 0.3)


@given(L=st.integers(min_value=0, max_value=12), theta=polar, phi=azimuth,
       grid=st.booleans())
@settings(max_examples=80, deadline=None)
def test_spherical_harmonics_table_entries_are_the_single_values(L, theta, phi, grid):
    if grid:  # an array argument: the poles and the given point, one azimuth each
        theta = np.array([0.0, theta, math.pi])
        phi = np.array([phi, -phi, 0.5 * phi])
    table = sf.spherical_harmonics(L, theta, phi)
    assert sorted(table) == sorted((l, m) for l in range(L + 1) for m in range(-l, l + 1))
    for (l, m), y in table.items():
        assert same_bits(y, sf.spherical_harmonic(l, m, theta, phi))
        assert same_bits(y, harmonic_loop(l, m, theta, phi))


def test_spherical_harmonics_rejects_bad_degree():
    for L in (-1, 1.5):
        with pytest.raises(ValueError):
            sf.spherical_harmonics(L, 0.3, 0.4)


# ---------------------------------------------------------------------------
# spherical Bessel
# ---------------------------------------------------------------------------

def test_bessel_at_zero():
    assert sf.spherical_bessel(0, 0.0) == 1.0
    for l in range(1, 6):
        assert sf.spherical_bessel(l, 0.0) == 0.0


def test_bessel_closed_forms():
    for x in [1e-4, 0.1, 1.0, 7.5, 40.0]:
        assert sf.spherical_bessel(0, x) == pytest.approx(math.sin(x) / x, rel=1e-12)
    # the explicit j_1 form cancels catastrophically below x ~ 1e-2, so only
    # check it where it is well conditioned
    for x in [0.1, 1.0, 7.5, 40.0]:
        want1 = math.sin(x) / x ** 2 - math.cos(x) / x
        assert sf.spherical_bessel(1, x) == pytest.approx(want1, rel=1e-10, abs=1e-14)


def test_bessel_at_infinity_is_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.spherical_bessel(0, math.inf) == 0.0
        got = sf.spherical_bessel(3, [math.inf, 1e300, 2.0])
    assert got[0] == 0.0
    assert got[1] == sf.spherical_bessel(3, 1e300) and got[2] == sf.spherical_bessel(3, 2.0)


def test_spherical_angles_where_the_squared_norm_overflows():
    assert sf.spherical_angles((0.0, 0.0, 1e200)) == (1e200, 0.0, 0.0)
    r, theta, phi = sf.spherical_angles((1e200, 1e200, 1e200))
    assert r == pytest.approx(math.sqrt(3.0) * 1e200, rel=1e-15)
    assert theta == pytest.approx(math.acos(1.0 / math.sqrt(3.0)), rel=1e-15)
    assert phi == pytest.approx(math.pi / 4, rel=1e-15)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 10, 20])
def test_bessel_matches_scipy(l):
    x = np.array([1e-5, 1e-3, 0.3, 1.0, float(l) + 0.5, 3.0 * l + 2.0, 80.0])
    got = sf.spherical_bessel(l, x)
    want = spherical_jn(l, x)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-15)


# ---------------------------------------------------------------------------
# Wigner 3j
# ---------------------------------------------------------------------------

def test_3j_selection_rules_give_zero():
    assert sf.wigner_3j(1, 1, 1, 1, 1, 1) == 0.0
    assert sf.wigner_3j(1, 1, 5, 0, 0, 0) == 0.0
    assert sf.wigner_3j(0.5, 0.5, 0.5, 0.5, -0.5, 0.5) == 0.0


def test_3j_columns_of_zero_j3():
    # (j j 0; m -m 0) = (-1)^(j-m)/sqrt(2j+1)
    for j in (0.5, 1, 1.5, 3):
        for two_m in range(-int(2 * j), int(2 * j) + 1, 2):
            m = two_m / 2.0
            want = (-1.0) ** round(j - m) / math.sqrt(2 * j + 1)
            assert sf.wigner_3j(j, j, 0, m, -m, 0) == pytest.approx(want, rel=1e-13)


def test_3j_known_value():
    assert sf.wigner_3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0), rel=1e-13)


def test_3j_against_sympy_oracle():
    from sympy.physics.wigner import wigner_3j as sympy_3j
    from sympy import Rational

    rng = np.random.default_rng(33)
    checked = 0
    while checked < 40:
        tj1, tj2 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        tj3 = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1 = int(rng.integers(-tj1, tj1 + 1))
        tm2 = int(rng.integers(-tj2, tj2 + 1))
        tm3 = -(tm1 + tm2)
        if abs(tm3) > tj3 or (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
            continue
        args = [Rational(t, 2) for t in (tj1, tj2, tj3, tm1, tm2, tm3)]
        want = float(sympy_3j(*args))
        got = sf.wigner_3j(tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)
        checked += 1


def test_3j_orthogonality_sum():
    # for fixed j3, sum_(m1,m2) (2j3+1) 3j(j1 j2 j3; m1 m2 m3)^2 = 1 per m3,
    # hence 2j3+1 when the m3 column is summed over as well
    j1, j2 = 2, 1.5
    for two_j3 in range(1, 8, 2):
        j3 = two_j3 / 2.0
        if j3 < abs(j1 - j2) or j3 > j1 + j2:
            continue
        total = 0.0
        for two_m1 in range(-4, 5, 2):
            for two_m2 in range(-3, 4, 2):
                m1, m2 = two_m1 / 2.0, two_m2 / 2.0
                total += (2 * j3 + 1) * sf.wigner_3j(j1, j2, j3, m1, m2, -(m1 + m2)) ** 2
        assert total == pytest.approx(2 * j3 + 1, rel=1e-12)


# ---------------------------------------------------------------------------
# Wigner D
# ---------------------------------------------------------------------------

def _angular_momentum_j(two_j):
    dim = two_j + 1
    ms = np.array([two_j / 2.0 - k for k in range(dim)])  # m = j..-j
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = ms[k]
        j = two_j / 2.0
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m * (m + 1))
    jm = jp.T
    jy = (jp - jm) / 2j
    return ms, jy


def wigner_d_expm(two_j, theta):
    # library convention: the transpose of expm(-i theta Jy) in the m=j..-j basis
    _, jy = _angular_momentum_j(two_j)
    return expm(1j * theta * jy)


@pytest.mark.parametrize("two_j", [1, 2, 3, 4, 8])
def test_wigner_d_matches_expm_oracle(two_j):
    theta = 0.83
    oracle = wigner_d_expm(two_j, theta)
    dim = two_j + 1
    for a in range(dim):
        for b in range(dim):
            mp = two_j / 2.0 - a
            m = two_j / 2.0 - b
            got = sf.wigner_d_small(two_j / 2.0, mp, m, theta)
            assert got == pytest.approx(oracle[a, b].real, rel=1e-11, abs=1e-12)
            assert abs(oracle[a, b].imag) < 1e-14


def test_wigner_D_identity_rotation():
    for j, mp, m in [(0.5, 0.5, -0.5), (1, 1, 1), (2, -1, 1), (1.5, 0.5, 0.5)]:
        want = 1.0 if mp == m else 0.0
        assert sf.wigner_D(j, mp, m, 0.0, 0.0, 0.0) == pytest.approx(want, abs=1e-15)


def test_wigner_D_half_spin_diagonal():
    theta = 1.234
    assert sf.wigner_D(0.5, 0.5, 0.5, 0.0, theta, 0.0) == pytest.approx(
        math.cos(theta / 2)
    )


def test_wigner_D_relates_to_harmonics():
    # D^l_(0,m)(., theta, phi) = sqrt(4pi/(2l+1)) conj(Y_lm)
    rng = np.random.default_rng(4)
    for l in range(0, 5):
        for m in range(-l, l + 1):
            th = float(rng.uniform(0.1, math.pi - 0.1))
            ph = float(rng.uniform(0.0, 2 * math.pi))
            psi = float(rng.uniform(0.0, 2 * math.pi))
            lhs = math.sqrt(4 * math.pi / (2 * l + 1)) * np.conj(
                sf.spherical_harmonic(l, m, th, ph)
            )
            rhs = sf.wigner_D(l, 0, m, psi, th, ph)
            assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-13)


@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_wigner_D_unitarity(two_j):
    j = two_j / 2.0
    rng = np.random.default_rng(two_j)
    psi, th, ph = rng.uniform(0.1, 3.0, size=3)
    dim = two_j + 1
    mat = np.array([
        [sf.wigner_D(j, two_j / 2 - a, two_j / 2 - b, psi, th, ph) for b in range(dim)]
        for a in range(dim)
    ])
    assert np.max(np.abs(mat @ mat.conj().T - np.eye(dim))) < 1e-12


def test_wigner_D_group_composition():
    # D(psi,theta,phi) = D(psi,0,0) D(0,theta,0) D(0,0,phi) as matrices
    two_j = 3
    j = two_j / 2.0
    psi, th, ph = 0.7, 1.1, 2.3
    dim = two_j + 1

    def dmat(a, b, c):
        return np.array([
            [sf.wigner_D(j, two_j / 2 - r, two_j / 2 - s, a, b, c) for s in range(dim)]
            for r in range(dim)
        ])

    full = dmat(psi, th, ph)
    composed = dmat(psi, 0, 0) @ dmat(0, th, 0) @ dmat(0, 0, ph)
    assert np.max(np.abs(full - composed)) < 1e-13


def test_wigner_D_su2_consistent_with_euler():
    for (j, mp, m) in [(0.5, 0.5, -0.5), (1, 0, 1), (1.5, 1.5, -0.5), (2, -2, 2)]:
        psi, th, ph = 0.3, 0.9, 1.7
        u = sf.euler_su2(psi, th, ph)
        got = sf.wigner_D_su2(j, mp, m, u)
        want = sf.wigner_D(j, mp, m, psi, th, ph)
        assert got == pytest.approx(complex(want), abs=1e-13)


def test_wigner_D_su2_homogeneous_scaling():
    u = 1.7 * sf.euler_su2(0.4, 1.0, 2.0)
    got = sf.wigner_D_su2(1.5, 0.5, -0.5, u)
    want = 1.7 ** 3 * sf.wigner_D(1.5, 0.5, -0.5, 0.4, 1.0, 2.0)
    assert got == pytest.approx(complex(want), rel=1e-12)


def test_wigner_D_rejects_bad_projection():
    with pytest.raises(ValueError):
        sf.wigner_D(1, 0.5, 0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sf.wigner_D(1, 2, 0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# null vector
# ---------------------------------------------------------------------------

@given(
    xr=st.floats(-3, 3), xi=st.floats(-3, 3),
    er=st.floats(-3, 3), ei=st.floats(-3, 3),
)
@settings(max_examples=120, deadline=None)
def test_null_vector_isotropy(xr, xi, er, ei):
    # the components the generating functions use: a.e_k for the unit vectors
    pair = (complex(xr, xi), complex(er, ei))
    a = [complex(hy._null_dot(*pair, e)) for e in np.eye(3)]
    norm2 = sum(abs(c) ** 2 for c in a)
    iso = abs(sum(c * c for c in a))
    assert iso <= 1e-13 * max(norm2, 1e-300)


def test_quantum_numbers_validation():
    sf.QuantumNumbers(3, 2, -2)
    with pytest.raises(ValueError):
        sf.QuantumNumbers(0, 0, 0)
    with pytest.raises(ValueError):
        sf.QuantumNumbers(2, 2, 0)
    with pytest.raises(ValueError):
        sf.QuantumNumbers(2, 1, 2)
    for label, qn in (("n", (2.5, 1, 0)), ("l", (3, 1.5, 0)), ("m", (2, 1, 0.5)),
                      ("n", (math.nan, 0, 0))):
        with pytest.raises(ValueError, match=f"quantum number {label} must be an integer"):
            sf.QuantumNumbers(*qn)
    sf.QuantumNumbers(np.int64(3), np.int32(2), np.int8(-2))
