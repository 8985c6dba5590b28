"""The Gegenbauer / hyperspherical identity family, both sides evaluated."""

import math

import numpy as np
import pytest

from fockspace import identities as idn, quadrature as qr, specfun as sf


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_genfunc_gegenbauer_trivial_t_zero():
    chk = idn.genfunc_gegenbauer(1.3, 0.0, 0.4)
    assert chk.closed == 1.0 and chk.series == 1.0 and chk.residual == 0.0


def test_genfunc_gegenbauer_geometric_case():
    chk = idn.genfunc_gegenbauer(1.0, 0.5, 1.0)
    assert chk.closed == pytest.approx(4.0)
    assert chk.residual < 1e-11


def test_genfunc_gegenbauer_half_integer_order():
    chk = idn.genfunc_gegenbauer(1.5, 0.4, 0.3)
    assert chk.residual < 1e-11


def test_genfunc_gegenbauer_domain_and_warning():
    with pytest.raises(ValueError):
        idn.genfunc_gegenbauer(1.0, 1.0, 0.0)
    with pytest.warns(UserWarning):
        idn.genfunc_gegenbauer(1.0, 0.95, 0.2)


def genfunc_reference(a, t, x, max_terms=600):
    # the series one scalar gegenbauer call per term, with the same early stop
    closed = (1.0 - 2.0 * x * t + t * t) ** (-a)
    series = 0.0
    small = 0
    for m in range(max_terms):
        term = t ** m * sf.gegenbauer(m, a, x)
        series += term
        small = small + 1 if abs(term) < 1e-13 * max(1.0, abs(series)) else 0
        if small >= 3:
            break
    return closed, series, abs(closed - series) / max(1.0, abs(closed))


@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.5, 7.0])
def test_genfunc_gegenbauer_equals_per_term_series(a, monkeypatch):
    for t in (-0.5, 0.0, 0.1, 0.45, 0.8):
        for x in (-1.0, -0.3, 0.0, 0.77, 1.0):
            assert tuple(idn.genfunc_gegenbauer(a, t, x)) == genfunc_reference(a, t, x)
    monkeypatch.setattr(idn, "GENFUNC_MAX_TERMS", 7)
    assert tuple(idn.genfunc_gegenbauer(a, 0.6, 0.2)) == genfunc_reference(
        a, 0.6, 0.2, max_terms=7)


def test_genfunc_gegenbauer_stops_early(monkeypatch):
    drawn = []

    def counting_ladder(a, x):
        for c in sf.gegenbauer_ladder(a, x):
            drawn.append(c)
            yield c

    monkeypatch.setattr(idn, "gegenbauer_ladder", counting_ladder)
    chk = idn.genfunc_gegenbauer(1.0, 0.1, 0.3)
    assert chk.residual < 1e-14
    assert len(drawn) < 25  # terms fall below 1e-13 near m = 14; 3 more confirm


def test_bessel_genfunc_leading_term():
    # z = 0 keeps only the n = 0 term, 1/Gamma(a + 1/2)
    for a in (0.7, 1.0, 2.5):
        chk = idn.bessel_genfunc(a, 0.0, 1.1)
        assert chk.lhs == pytest.approx(1.0 / math.gamma(a + 0.5), rel=1e-14)
        assert chk.residual < 1e-14


@pytest.mark.parametrize("a,z,chi,tol", [
    (1.0, 2.0, math.pi / 2, 1e-9),
    (2.0, 5.0, 1.0, 1e-8),
    (1.5, 3.0, 2.2, 1e-9),
    (3.0, 4.0, 0.4, 1e-8),
])
def test_bessel_genfunc_agreement(a, z, chi, tol):
    chk = idn.bessel_genfunc(a, z, chi)
    assert chk.residual < tol


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
def test_bessel_genfunc_equals_per_term_series(a, monkeypatch):
    lg2a, lgha = math.lgamma(2.0 * a), math.lgamma(a + 0.5)
    for z in (0.0, 0.5, 3.0):
        for chi in (0.0, 0.4, 1.7, math.pi):
            for terms in (0, 1, 20, 60):
                monkeypatch.setattr(idn, "BESSEL_GENFUNC_TERMS", terms)
                chk = idn.bessel_genfunc(a, z, chi)
                rhs = sum(
                    math.exp(lg2a - lgha - math.lgamma(2.0 * a + nn))
                    * sf.gegenbauer(nn, a, math.cos(chi)) * z ** nn
                    for nn in range(terms)
                )
                assert chk.rhs == rhs


def test_bessel_genfunc_endpoint_chi():
    # sin(chi) -> 0 endpoint handled by the series limit of the Bessel factor
    chk = idn.bessel_genfunc(1.0, 2.0, 0.0)
    assert chk.lhs == pytest.approx(math.exp(2.0) / math.gamma(1.5), rel=1e-12)
    assert chk.residual < 1e-10


def test_gegenbauer_recurrence_low_order_hand_check():
    # (n+a) C_(n+1)^(a-1) = (a-1)(C_(n+1)^(a) - C_(n-1)^(a)) at a=2, n=1:
    # 3 (4x^2 - 1) = (12x^2 - 2) - 1
    for x in np.linspace(-1, 1, 7):
        (n0, _), (n1, _) = idn.gegenbauer_recurrence_ladder(2.0, 1, float(x))
        assert n1 < 1e-13
        assert n0 < 1e-14  # C_-1 = 0


def test_gegenbauer_recurrence_sweep():
    for a in (1.5, 2.0, 4.0, 6.0):
        for x in np.linspace(-1, 1, 9):
            for n, (resid, _) in enumerate(idn.gegenbauer_recurrence_ladder(a, 20, float(x))):
                scale = max(1.0, abs(sf.gegenbauer(n + 1, a, float(x))))
                assert resid <= 1e-10 * scale


def _per_degree_recurrence(a, n, x):
    # the residual restarted from C_0 at every degree, as one call per degree
    lhs = (n + a) * sf.gegenbauer(n + 1, a - 1.0, x)
    rhs = (a - 1.0) * (sf.gegenbauer(n + 1, a, x) - sf.gegenbauer(n - 1, a, x))
    return abs(lhs - rhs)


def test_gegenbauer_recurrence_ladder_is_the_per_degree_call():
    for a in (0.75, 1.5, 2.0, 3.0, 4.5, 6.0):
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            got = idn.gegenbauer_recurrence_ladder(a, 20, x)
            assert len(got) == 21
            for n, (resid, rung) in enumerate(got):
                want = _per_degree_recurrence(a, n, x)
                assert type(resid) is float and resid.hex() == want.hex(), (a, x, n)
                assert rung.hex() == sf.gegenbauer(n + 1, a, x).hex()


def test_gegenbauer_recurrence_domain():
    with pytest.raises(ValueError):
        idn.gegenbauer_recurrence_ladder(0.5, 2, 0.1)
    with pytest.raises(ValueError):
        idn.gegenbauer_recurrence_ladder(1.5, -1, 0.1)


# ---------------------------------------------------------------------------
# integral representation
# ---------------------------------------------------------------------------

def test_integral_rep_l0_closed_form():
    # l = 0 is the Laplace transform of sin: rhs = lhs exactly
    chk = idn.integral_rep(0, 0.5, 1.0)
    assert chk.rhs == pytest.approx(chk.lhs, rel=1e-13)
    assert chk.kappa == pytest.approx(1.0, rel=1e-12)


def test_integral_rep_l1_calibration():
    chk = idn.integral_rep(1, 0.5, math.pi / 3)
    assert chk.ratio == pytest.approx(2.0 * 0.5 * math.sin(math.pi / 3), rel=1e-10)
    assert chk.kappa == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_integral_rep_kappa_chi_independent(l):
    alpha = 0.4
    vals = [idn.integral_rep(l, alpha, float(chi)).kappa
            for chi in np.linspace(0.2, math.pi - 0.2, 9)]
    target = 2.0 ** l * math.factorial(l)
    assert (max(vals) - min(vals)) / target < 1e-7
    assert np.mean(vals) == pytest.approx(target, rel=1e-8)


def test_integral_rep_validation():
    with pytest.raises(ValueError):
        idn.integral_rep(0, 1.2, 1.0)
    with pytest.raises(ValueError):
        idn.integral_rep(0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# plane-wave expansion
# ---------------------------------------------------------------------------

def test_plane_wave_degenerate_origin():
    chk = idn.plane_wave_partial((0, 0, 0), (1.0, 2.0, 0.5), 10)
    assert chk.exact == 1.0 and chk.partial == 1.0


def test_plane_wave_converged():
    rng = np.random.default_rng(8)
    v1 = rng.normal(size=3)
    v1 *= math.sqrt(2.0) / np.linalg.norm(v1)
    v2 = rng.normal(size=3)
    v2 /= np.linalg.norm(v2)
    chk = idn.plane_wave_partial(v1, v2, 25)
    assert chk.residual < 1e-10


def test_plane_wave_equals_per_term_sum():
    # the m-sum in the same order, two scalar harmonics and one single-order
    # Bessel value per term
    rng = np.random.default_rng(11)
    points = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(12)]
    points += [((0.0, 0.0, 1.3), (0.0, 0.0, -0.4)), ((0.2, -0.7, 0.0), (0.0, 0.0, 2.0))]
    degrees = [(0, 1, 2, 3, 5, 12)] * len(points)
    # the suite's points, |r||r'| = sqrt(2) and 5, where the orders cross
    # from the upward recurrence to Miller's
    rv = rng.normal(size=3)
    unit = np.array([0.3, 0.8, 0.52]) / np.linalg.norm([0.3, 0.8, 0.52])
    points += [(rv * math.sqrt(2.0) / np.linalg.norm(rv), unit), ((5.0, 0.0, 0.0), unit)]
    degrees += [(25, 30)] * 2
    for (rvec, rpvec), Ls in zip(points, degrees):
        r, th, ph = sf.spherical_angles(rvec)
        rp, thp, php = sf.spherical_angles(rpvec)
        for L in Ls:
            partial = 0.0 + 0.0j
            for l in range(L + 1):
                msum = sum(
                    np.conj(sf.spherical_harmonic(l, m, thp, php))
                    * sf.spherical_harmonic(l, m, th, ph)
                    for m in range(-l, l + 1)
                )
                partial += 4.0 * math.pi * 1j ** l * sf.spherical_bessel(l, r * rp) * msum
            got = idn.plane_wave_partial(rvec, rpvec, L).partial
            assert np.array_equal(np.array([got]).view(np.int64), np.array([partial]).view(np.int64))


def test_plane_wave_tail_decays_geometrically():
    # beyond L ~ e*r*r'/2 the truncation error should drop at least
    # geometrically; demand at least a factor 2 per 4 orders (it is far
    # faster in practice) until the floor of machine precision
    v1 = np.array([5.0, 0.0, 0.0])
    v2 = np.array([0.1, 0.7, 0.9])
    v2 /= np.linalg.norm(v2)
    resid = [idn.plane_wave_partial(v1, v2, L).residual for L in (10, 14, 18, 22, 26)]
    for a, b in zip(resid, resid[1:]):
        assert b < max(0.5 * a, 1e-15)


# ---------------------------------------------------------------------------
# duplication formula
# ---------------------------------------------------------------------------

def test_duplication_printed_fails_by_factor_two():
    for n in (0, 1, 5, 9):
        chk = idn.duplication_check(n)
        assert chk.printed == pytest.approx(0.5, abs=1e-12)


def test_duplication_corrected_passes():
    for n in range(0, 11):
        assert idn.duplication_check(n).corrected < 1e-13


# ---------------------------------------------------------------------------
# hyperspherical harmonics
# ---------------------------------------------------------------------------

def test_hyperspherical_ground_constant():
    want = 1.0 / (math.sqrt(2.0) * math.pi)
    for v in [(0, 0, 0, 1.0), (0.6, 0, 0.8, 0), (0.5, 0.5, 0.5, 0.5)]:
        assert idn.hyperspherical_Y(1, 0, 0, v) == pytest.approx(want, rel=1e-14)


def test_hyperspherical_parity_zero_at_equator():
    # chi = pi/2 kills odd-degree Gegenbauer factors
    v = idn.point_on_s3(math.pi / 2, 0.7, 0.3)
    assert abs(idn.hyperspherical_Y(2, 0, 0, v)) < 1e-15  # degree 1 at argument 0


def test_hyperspherical_orthonormality():
    rule = qr.s3_rule(20, 20, 21)
    states = [(n, l, m) for n in range(1, 4) for l in range(n) for m in range(-l, l + 1)]
    chi, theta, phi = rule.nodes
    fields = []
    for (n, l, m) in states:
        from scipy.special import gammaln
        norm = 2.0 ** (l + 1) * math.exp(
            gammaln(l + 1.0) + 0.5 * (math.log(n) + gammaln(n - l)
                                      - math.log(2 * math.pi) - gammaln(n + l + 1.0))
        )
        fields.append(norm * np.sin(chi) ** l
                      * sf.gegenbauer(n - l - 1, l + 1.0, np.cos(chi))
                      * sf.spherical_harmonic(l, m, theta, phi))
    gram = np.array([[np.sum(rule.weights * np.conj(a) * b) for b in fields] for a in fields])
    assert np.max(np.abs(gram - np.eye(len(states)))) < 1e-9


def test_hyperspherical_grid_matches_pointwise():
    # the vectorized grid evaluation above is the same function as the
    # public pointwise evaluator
    v = idn.point_on_s3(0.9, 1.2, 2.0)
    got = idn.hyperspherical_Y(3, 2, -1, v)
    norm = np.linalg.norm(v)
    assert norm == pytest.approx(1.0, abs=1e-14)
    # compare against an independent composition
    from scipy.special import gammaln
    pref = 2.0 ** 3 * math.exp(gammaln(3.0) + 0.5 * (
        math.log(3) + gammaln(1.0) - math.log(2 * math.pi) - gammaln(6.0)))
    want = (pref * math.sin(0.9) ** 2 * sf.gegenbauer(0, 3.0, math.cos(0.9))
            * sf.spherical_harmonic(2, -1, 1.2, 2.0))
    assert got == pytest.approx(complex(want), rel=1e-13)


def test_hyperspherical_homogeneous_harmonicity():
    # five-point 4-D Laplacian of the degree-(n-1) extension vanishes
    rng = np.random.default_rng(10)
    h = 1e-3
    for (n, l, m) in [(2, 1, 0), (3, 2, -1), (4, 2, 2)]:
        v = rng.normal(size=4)
        v *= rng.uniform(0.8, 1.2) / np.linalg.norm(v)
        center = idn.hyperspherical_Y(n, l, m, v)
        lap = 0.0 + 0.0j
        for k in range(4):
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            lap += (idn.hyperspherical_Y(n, l, m, vp)
                    + idn.hyperspherical_Y(n, l, m, vm) - 2 * center)
        assert abs(lap) / h ** 2 < 1e-4


def test_hyperspherical_validation():
    with pytest.raises(ValueError):
        idn.hyperspherical_Y(1, 1, 0, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        idn.hyperspherical_Y(2, 1, 0, (0, 0, 0, 0))
    # non-integral labels are refused, not evaluated as if they were a state
    rule = qr.s3_rule(4, 4, 5)
    for label, (n, l, m) in (("n", (2.5, 1, 0)), ("l", (3, 1.5, 0)), ("m", (2, 1, 0.5))):
        for evaluate in (lambda: idn.hyperspherical_Y(n, l, m, (0.6, 0.0, 0.0, 0.8)),
                         lambda: idn.hyperspherical_harmonic(n, l, m, 0.8, 0.6, 0.5, 0.5),
                         lambda: idn.hyperspherical_on_s3(n, l, m, rule)):
            with pytest.raises(ValueError, match=f"quantum number {label} must be an integer"):
                evaluate()


# ---------------------------------------------------------------------------
# triple-D integral and the passage formula
# ---------------------------------------------------------------------------

def test_triple_d_selection_rule_zero():
    chk = idn.triple_D_integral(3, 1, 0, 2, 2)
    assert chk.threej_product == 0.0
    assert abs(chk.numeric) < 1e-12


@pytest.mark.parametrize("n,l,tol", [(2, 1, 1e-10), (3, 2, 1e-9)])
def test_triple_d_matches_3j_products(n, l, tol):
    j = 0.5 * (n - 1)
    for tm1 in range(-(n - 1), n, 2):
        for tm2 in range(-(n - 1), n, 2):
            m1, m2 = tm1 / 2.0, tm2 / 2.0
            m = -int(round(m1 + m2))
            if abs(m) > l:
                continue
            chk = idn.triple_D_integral(n, m1, m2, l, m)
            assert chk.residual < tol
            # cross-check the analytic side appears in both factors
            want = sf.wigner_3j(j, j, l, j, -j, 0) * sf.wigner_3j(j, j, l, m1, m2, m)
            assert chk.threej_product == pytest.approx(want, rel=1e-13)


def _uncached_triple_d_numeric(n, m1, m2, l, m) -> complex:
    # triple_D_integral's numeric side with its three small-d arrays rebuilt
    # on every call, in the order of its product
    j = 0.5 * (n - 1)
    gl = qr.gauss_legendre(64)
    theta = np.arccos(gl.nodes)
    dprod = (sf.wigner_d_small(j, j, m1, theta)
             * sf.wigner_d_small(j, -j, m2, theta)
             * sf.wigner_d_small(l, 0, m, theta))
    theta_part = float(np.sum(gl.weights * dprod))
    phi = 2.0 * math.pi * np.arange(32) / 32
    phi_part = complex(np.sum(np.exp(-1j * (m1 + m2 + m) * phi))) * 2.0 * math.pi / 32
    return theta_part * (2.0 * math.pi) * phi_part / (8.0 * math.pi ** 2)


def test_triple_d_cached_arrays_keep_every_bit():
    # every (n, m1, m2, l, m) of the identities suite's sweep, twice, so the
    # second pass reads only cached arrays
    for _ in range(2):
        for n in (2, 3, 4):
            for l in range(1, min(3, n) + 1):
                for tm1 in range(-(n - 1), n, 2):
                    for tm2 in range(-(n - 1), n, 2):
                        m1, m2 = 0.5 * tm1, 0.5 * tm2
                        for m in range(-l, l + 1):
                            got = idn.triple_D_integral(n, m1, m2, l, m).numeric
                            want = _uncached_triple_d_numeric(n, m1, m2, l, m)
                            bits = np.array([got, want]).view(np.int64).reshape(2, 2)
                            assert bits[0].tolist() == bits[1].tolist(), (n, m1, m2, l, m)
    with pytest.raises(ValueError, match="read-only"):
        idn._haar_d(1.5, 1.5, 0.5)[0] = 1.0


def test_passage_ground_state_exact():
    chk = idn.passage_residual(1, 0, 0, 1.0, 0.5, 0.7)
    assert chk.residual < 1e-14
    assert chk.lhs == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi), rel=1e-12)


@pytest.mark.parametrize("n,l", [(2, 1), (3, 2), (4, 3), (4, 1)])
def test_passage_matches_harmonics(n, l):
    phase = idn.passage_phase(n, l)
    assert phase == pytest.approx(1.0 + 0.0j, abs=1e-10)
    rng = np.random.default_rng(n * 10 + l)
    for m in range(-l, l + 1):
        chi = float(rng.uniform(0.3, math.pi - 0.3))
        th = float(rng.uniform(0.3, math.pi - 0.3))
        ph = float(rng.uniform(0.0, 2 * math.pi))
        chk = idn.passage_residual(n, l, m, chi, th, ph, phase=phase)
        assert chk.residual < 1e-8
