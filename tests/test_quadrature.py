"""Quadrature rules, the Hankel oracle, and the Monte Carlo integrator."""

import functools
import math
import subprocess
import sys

import numpy as np
import pytest

from fockspace import hydrogen, quadrature as qr


# ---------------------------------------------------------------------------
# 1-D rules
# ---------------------------------------------------------------------------

def test_legendre_weight_sum_and_monotone_nodes():
    rule = qr.gauss_legendre(64)
    assert abs(np.sum(rule.weights) - 2.0) < 1e-14
    assert np.all(np.diff(rule.nodes) > 0)


def test_legendre_two_point_is_exact_for_x2():
    rule = qr.gauss_legendre(2)
    assert rule.integrate(lambda x: x ** 2) == pytest.approx(2.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_legendre_even_monomials_exact(n):
    rule = qr.gauss_legendre(n + 1)
    got = rule.integrate(lambda x: x ** (2 * n))
    assert got == pytest.approx(2.0 / (2 * n + 1), rel=1e-12)


def test_laguerre_basic_integrals():
    rule = qr.gauss_laguerre(16, 0.0)
    assert rule.integrate(lambda t: np.ones_like(t)) == pytest.approx(1.0, rel=1e-14)
    assert rule.integrate(lambda t: t ** 3) == pytest.approx(6.0, rel=1e-13)


def test_laguerre_scaled_exponential():
    # int_0^inf e^(-2t) dt = 1/2 via t -> t/2 scaling
    rule = qr.gauss_laguerre(8, 0.0)
    got = np.sum(rule.weights * 1.0) / 2.0
    assert got == pytest.approx(0.5, rel=1e-12)


def test_laguerre_weight_sum_is_gamma():
    rule = qr.gauss_laguerre(32, 2.5)
    assert np.sum(rule.weights) == pytest.approx(math.gamma(3.5), rel=1e-13)


def _reference_weights(nodes, a):
    # the weight recurrence of gauss_laguerre run over every node of the
    # len(nodes)-node rule, as it was before the weights were built only
    # where they can be nonzero
    npts = len(nodes)
    mass = math.exp(math.lgamma(a + 1.0))
    e = np.ones_like(nodes)
    f = np.zeros_like(nodes)
    sigma = 1.0 / math.sqrt(mass)
    kernel = np.full_like(nodes, sigma * sigma)
    log_scale = np.zeros_like(nodes)
    for k in range(npts - 1):
        if k:
            f = f * (k / (k + a))
        f = f - nodes * e
        e = e + f / (k + a + 1.0)
        sigma *= math.sqrt((k + a + 1.0) / (k + 1.0))
        kernel = kernel + np.square(e * sigma)
        big = kernel > 1e200
        if np.any(big):
            e[big] *= 1e-100
            f[big] *= 1e-100
            kernel[big] *= 1e-200
            log_scale[big] -= 100.0 * math.log(10.0)
    return np.exp(2.0 * log_scale) / kernel


@functools.lru_cache(maxsize=None)
def _full_rule(npts, a):
    # every zero of L_npts^a, polished in one pass, with its reference
    # weight; gauss_laguerre keeps a prefix of this rule
    nodes = qr._laguerre_nodes(npts, a, 0, npts)
    return nodes, _reference_weights(nodes, a)


LAGUERRE_CASES = [
    *((n, a) for n in (2, 3, 10, 100, 190, 300, 639, 1151)
      for a in (-0.5, 0.0, 0.5, 2.0, 3.0, 7.0, 12.0)),
    (4096, 3.0),
    (2175, 7.0),
]


@pytest.mark.parametrize("npts, a", LAGUERRE_CASES)
def test_laguerre_cut_is_bit_identical_to_the_full_recurrence(npts, a):
    # the rule's weights are those of the recurrence run over all npts
    # nodes, and every weight it drops is 0.0
    rule, (_, weights) = qr.gauss_laguerre(npts, a), _full_rule(npts, a)
    k = rule.nodes.size
    assert rule.weights.tobytes() == weights[:k].tobytes()
    assert np.all(weights[k:] == 0.0)


@pytest.mark.parametrize("npts, a", LAGUERRE_CASES)
def test_laguerre_live_prefix_is_the_rule_prefix(npts, a):
    # the rule is the start of the npts-node rule, byte for byte: its length
    # follows the live-count law, and its nodes, polished in ranges, are the
    # first of one polish of all of them
    rule, (nodes, _) = qr.gauss_laguerre(npts, a), _full_rule(npts, a)
    k = rule.nodes.size
    assert k == min(npts, qr._laguerre_live_count(nodes, a))
    assert rule.nodes.tobytes() == nodes[:k].tobytes()


@pytest.mark.parametrize("npts, a", LAGUERRE_CASES)
def test_laguerre_nodes_match_the_tridiagonal_eigenvalues(npts, a):
    # the Jacobi matrix of the weight t^a e^-t (Golub-Welsch), solved by
    # LAPACK; for few nodes, also the roots of L_n^a at 60 digits
    from scipy.linalg import eigh_tridiagonal
    nodes, _ = _full_rule(npts, a)
    k = np.arange(npts, dtype=float)
    eig = eigh_tridiagonal(2.0 * k + a + 1.0, np.sqrt(k[1:] * (k[1:] + a)),
                           eigvals_only=True)
    assert np.max(np.abs(nodes - eig)) <= 1e-13 * eig[-1]
    if npts <= 60:
        # L_n^a(x) = sum_j (-1)^j binom(n+a, n-j) x^j / j!
        import mpmath
        with mpmath.workdps(60):
            coeffs = [(-1) ** j * mpmath.binomial(npts + a, npts - j) / mpmath.factorial(j)
                      for j in range(npts, -1, -1)]
            exact = sorted(mpmath.re(r) for r in mpmath.polyroots(coeffs, maxsteps=200,
                                                                   extraprec=200))
            assert max(abs((x - r) / r) for x, r in zip(nodes, exact)) <= 1e-13


def _spy_on_node_ranges(monkeypatch):
    ranges = []
    polish = qr._laguerre_nodes

    def spy(npts, a, first=0, stop=None):
        ranges.append((first, npts if stop is None else stop))
        return polish(npts, a, first, stop)

    monkeypatch.setattr(qr, "_laguerre_nodes", spy)
    return ranges


def test_laguerre_live_prefix_grows_from_a_short_estimate(monkeypatch):
    want = qr.gauss_laguerre(1151, 7.0)
    qr.gauss_laguerre.cache_clear()
    ranges = _spy_on_node_ranges(monkeypatch)
    monkeypatch.setattr(qr, "_laguerre_live_estimate", lambda npts, a: 3)
    try:
        got = qr.gauss_laguerre(1151, 7.0)
    finally:
        qr.gauss_laguerre.cache_clear()
    assert len(ranges) > 1 and ranges[0] == (0, 3)
    assert all(r[1] == s[0] for r, s in zip(ranges, ranges[1:]))
    assert got.nodes.tobytes() == want.nodes.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


def test_hankel_polishes_only_the_live_nodes(monkeypatch):
    # the saving of the live prefix, guarded by a count of polished nodes
    live = qr.gauss_laguerre(4096, 2.0).nodes.size
    assert live < 4096 // 3
    qr.gauss_laguerre.cache_clear()
    ranges = _spy_on_node_ranges(monkeypatch)
    try:
        qr.radial_hankel(2, 0, np.array([0.1, 0.5]), npts=4096)
    finally:
        qr.gauss_laguerre.cache_clear()
    assert ranges and max(stop for _, stop in ranges) <= live + qr._LIVE_MARGIN


@pytest.mark.parametrize("npts, a", [
    (1000, -0.9), (1151, -0.9), (2175, -0.9), (3000, -0.9), (4095, -0.9), (4096, -0.9),
    (2048, -0.5), (3000, -0.5), (4095, -0.5), (4096, -0.5),
])
def test_laguerre_weights_sum_to_the_measure_near_a_minus_one(npts, a):
    # the first weights carry most of Gamma(a+1) here, so the sum shows the
    # relative accuracy of the smallest nodes and of their weights
    rule = qr.gauss_laguerre(npts, a)
    assert np.sum(rule.weights) == pytest.approx(math.gamma(a + 1.0), rel=5e-14)


def test_laguerre_rule_imports_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from fockspace import quadrature, verify\n"
         "quadrature.gauss_laguerre(4096, 3.0)\n"
         "assert verify.run_verify('hydrogen').failed == 0\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_laguerre_zero_weight_tail_and_moments_at_4096():
    a = 3.0
    rule, (nodes, weights) = qr.gauss_laguerre(4096, a), _full_rule(4096, a)
    live = np.count_nonzero(rule.weights)
    assert 0 < live <= rule.nodes.size == qr._laguerre_live_count(nodes, a) < 4096
    assert np.all(rule.weights[:live] > 0.0)
    assert rule.weights.tobytes() == weights[:rule.nodes.size].tobytes()
    assert np.all(weights[live:] == 0.0)
    for k in range(5):
        got = rule.integrate(lambda t: t ** k)
        assert got == pytest.approx(math.gamma(a + k + 1.0), rel=1e-12)


def test_hermite_moments():
    rule = qr.gauss_hermite(24)
    assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert rule.integrate(lambda t: t ** 2) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)


def test_chebyshev_second_kind():
    rule = qr.chebyshev_second(48)
    assert np.sum(rule.weights) == pytest.approx(math.pi / 2, rel=1e-13)
    # int sqrt(1-t^2) t^2 dt = pi/8
    assert rule.integrate(lambda t: t ** 2) == pytest.approx(math.pi / 8, rel=1e-12)


def test_rules_are_cached_with_a_bound():
    assert qr.gauss_legendre(64) is qr.gauss_legendre(64)
    assert qr.gauss_laguerre(40, 2.0) is qr.gauss_laguerre(40, 2.0)
    # rules that never repeat (a convergence ladder) must not grow the cache
    assert qr.gauss_legendre.cache_info().maxsize is not None
    assert qr.gauss_laguerre.cache_info().maxsize is not None
    # the shared instance cannot be modified by one of its callers
    with pytest.raises(ValueError):
        qr.gauss_legendre(64).nodes[0] = 0.0


def test_rule_size_validation():
    with pytest.raises(ValueError):
        qr.gauss_legendre(1)
    with pytest.raises(ValueError):
        qr.gauss_laguerre(10, -1.5)


def test_laguerre_measure_beyond_the_double_range_is_a_value_error():
    # Gamma(171) = 7.3e306 is a double, Gamma(172) is not
    assert qr.gauss_laguerre(10, 170.0).measure == pytest.approx(math.gamma(171.0), rel=1e-13)
    with pytest.raises(ValueError, match="Gamma"):
        qr.gauss_laguerre(10, 171.0)
    # the Hankel oracle's rule has a = l + 2
    with pytest.raises(ValueError, match="Gamma"):
        qr.radial_hankel(170, 169, 0.01)


def test_product_rule_weights_sum_to_the_measure(angular_rule):
    ang = angular_rule(16, 17)
    assert ang.weights.shape == (16, 17)
    assert float(np.sum(ang.weights)) == pytest.approx(4 * math.pi, rel=1e-13)
    s3 = qr.s3_rule(12, 12, 13)
    assert s3.weights.shape == (12, 12, 13)
    assert float(np.sum(s3.weights)) == pytest.approx(2 * math.pi ** 2, rel=1e-12)
    # the chi rule alone carries the sin^2(chi) measure, pi/2
    assert float(np.sum(qr.chebyshev_second(12).weights)) == pytest.approx(math.pi / 2, rel=1e-13)


# ---------------------------------------------------------------------------
# Hankel oracle
# ---------------------------------------------------------------------------

def test_hankel_ground_state_closed_form():
    p = np.linspace(0.0, 3.0, 13)
    got = qr.radial_hankel(1, 0, p)
    want = 4.0 * math.sqrt(2.0 / math.pi) / (1.0 + p ** 2) ** 2
    assert np.max(np.abs(got - want) / want) < 1e-8


def test_hankel_p_zero_vanishes_for_l_positive():
    assert qr.radial_hankel(2, 1, 0.0) == 0.0


def test_hankel_matches_momentum_closed_form_modulus():
    p = np.linspace(0.05, 1.2, 9)
    got = np.abs(qr.radial_hankel(4, 2, p))
    want = np.abs(hydrogen.radial_momentum(4, 2, p))
    assert np.max(np.abs(got - want) / want) < 1e-6


@pytest.mark.parametrize("n, l", [(200, 150), (161, 160), (200, 140)])
def test_hankel_refuses_a_normalization_below_the_normal_range(n, l):
    # N_nl is 0.0 at the first two and 2.6e-322 at the third: the sum came
    # out exactly 0 (the closed form at p = delta/2 is -1.12e4 for (200, 150))
    # or 0.4% off
    assert hydrogen.normalization(n, l) < sys.float_info.min
    with pytest.raises(OverflowError, match=rf"\({n}, {l}\)"):
        qr.radial_hankel(n, l, 0.5 / n)


def test_hankel_keeps_its_bits_where_the_normalization_is_normal():
    # N_nl = 2.8e-234 at (200, 100); (-i)^100 = 1, so the values are real
    got = qr.radial_hankel(200, 100, np.array([0.0025, 0.005, 0.01, 0.02]), npts=4096)
    want = np.array([float.fromhex(h) for h in (
        "0x1.e6cddd918ef70p+12", "-0x1.1ede1af6c34c6p-35",
        "-0x1.e6cddd918f078p+8", "0x1.1a708d89de868p+3")]) + 0j
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, l, npts", [(120, 0, 4096), (150, 0, 4096), (150, 10, 2048)])
def test_hankel_is_finite_where_the_laguerre_polynomial_overflows_at_dead_nodes(n, l, npts):
    # L_(n-l-1)^(2l+1)(2t) overflows at far nodes whose weight is 0.0; the
    # full rule's sum formed 0 * inf = NaN there
    p = np.array([0.25, 0.5, 1.0, 2.0]) / n
    got = qr.radial_hankel(n, l, p, npts=npts)
    want = (-1) ** l * hydrogen.radial_momentum(n, l, p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_hankel_parseval():
    # int R^2 r^2 dr = int |F(p)|^2 p^2 dp for the transform pair.  The
    # oscillatory oracle is trustworthy up to p*n ~ 12 with 1200 radial
    # nodes; beyond the window the integrand decays like p^-(2l+6), so the
    # tail is extrapolated from the oracle's own endpoint value (relative
    # model error O(P^-2) on a tail that is itself < 1e-5).
    for (n, l) in [(1, 0), (3, 1), (5, 2)]:
        pos = qr.radial_overlap(n, n, l)  # exactly 1 for a bound state
        delta = 1.0 / n
        p_cut = 12.0 * delta
        rule = qr.gauss_legendre(240)
        chi_max = 2.0 * math.atan(p_cut / delta)
        chi = 0.5 * chi_max * (rule.nodes + 1.0)
        w = 0.5 * chi_max * rule.weights
        p = delta * np.tan(0.5 * chi)
        dp = 0.5 * delta / np.cos(0.5 * chi) ** 2
        f = qr.radial_hankel(n, l, p, npts=1200)
        window = float(np.sum(w * np.abs(f) ** 2 * p ** 2 * dp))
        f_cut = abs(complex(qr.radial_hankel(n, l, p_cut, npts=1200)))
        tail = f_cut ** 2 * p_cut ** 3 / (2 * l + 5)
        assert window + tail == pytest.approx(pos, rel=1e-6)


# ---------------------------------------------------------------------------
# Monte Carlo: the randomly shifted lattice rule
# ---------------------------------------------------------------------------

def test_inverse_normal_matches_scipy_to_full_precision():
    from scipy.special import ndtri
    rng = np.random.default_rng(20260)
    p = np.concatenate([rng.random(100_000), np.logspace(-300, -1, 600),
                        1.0 - np.logspace(-16, -1, 300)])
    want = ndtri(p)
    got = qr._ndtri(p)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15
    # a block of the shape mc_gaussian maps, holding points of all three regions
    block = p[-8 * 8191:].reshape(8191, 8)
    assert qr._ndtri(block).tobytes() == got[-8 * 8191:].tobytes()
    assert qr._ndtri(np.array([0.0, 0.5, 1.0])).tolist() == [-math.inf, 0.0, math.inf]


N = qr.LATTICE_POINTS
# P_2 of each generator at its own dimension, as found by the generator search
PINNED_P2 = {2: 3.839497515256696e-06, 4: 3.750548442209123e-03, 8: 11.244338328625965}


def _p2(a, dim):
    # P_2 = -1 + mean over the lattice of prod_j (1 + 2 pi^2 B_2(x_j)),
    # with the Bernoulli polynomial B_2(x) = x^2 - x + 1/6
    x = np.multiply.outer(np.arange(N), [pow(a, j, N) for j in range(dim)]) % N / N
    terms = 1.0 + 2.0 * math.pi ** 2 * (x * x - x + 1.0 / 6.0)
    return float(np.mean(np.prod(terms, axis=1)) - 1.0)


@pytest.mark.parametrize("dim", sorted(qr.LATTICE_GENERATORS))
def test_lattice_generator_is_pinned(dim):
    a = qr.LATTICE_GENERATORS[dim]
    assert math.gcd(a, N) == 1 and 2 <= a <= N // 2
    # distinct lattice coordinates in every dimension the generator serves:
    # up to its key, and up to the 64 of a level-6 Clifford average for the
    # largest key
    span = 64 if dim == max(qr.LATTICE_GENERATORS) else dim
    assert len({pow(a, j, N) for j in range(span)}) == span
    assert _p2(a, dim) == pytest.approx(PINNED_P2[dim], rel=1e-12)


def test_mc_constant_is_exact():
    est, err = qr.mc_gaussian(3, lambda u: np.ones(len(u)), 2 * N, seed=1)
    assert est == 1.0
    assert err == 0.0


def test_mc_second_moment():
    est, err = qr.mc_gaussian(2, lambda u: u[:, 0] ** 2, 24 * N, seed=7)
    assert abs(est - 0.5) < 4.0 * err


def test_mc_norm_moment_4d():
    est, err = qr.mc_gaussian(4, lambda u: np.sum(u ** 2, axis=1), 24 * N, seed=11)
    assert abs(est - 2.0) < 4.0 * err


def test_mc_deterministic_for_fixed_seed():
    a = qr.mc_gaussian(3, lambda u: np.cos(u[:, 0] + u[:, 1] * u[:, 2]), 6 * N, seed=5)
    b = qr.mc_gaussian(3, lambda u: np.cos(u[:, 0] + u[:, 1] * u[:, 2]), 6 * N, seed=5)
    assert a == b


def test_mc_chunking_invariance():
    # the points come in whole shifts of the lattice, one integrand call
    # each: samples is rounded up to whole shifts, and the result is the
    # mean of the shift means with their standard error
    f = lambda u: u[:, 0] ** 2
    a = qr.mc_gaussian(1, f, 3 * N, seed=2)
    assert qr.mc_gaussian(1, f, 2 * N + 1, seed=2) == a
    assert qr.mc_gaussian(1, f, 3 * N + 1, seed=2) != a
    shift_means = []

    def recording(u):
        assert u.shape == (N, 1)
        vals = f(u)
        shift_means.append(np.mean(vals))
        return vals

    assert qr.mc_gaussian(1, recording, 3 * N, seed=2) == a
    assert len(shift_means) == 3
    assert a[0] == pytest.approx(np.mean(shift_means), rel=1e-15)
    assert a[1] == pytest.approx(np.std(shift_means, ddof=1) / math.sqrt(3), rel=1e-12)


def test_mc_complex_integrand_splits_into_parts():
    g = lambda u: np.cos(u[:, 0] * u[:, 1])
    h = lambda u: u[:, 0] ** 2 - u[:, 1]
    est, err = qr.mc_gaussian(2, lambda u: g(u) + 1j * h(u), 4 * N, seed=4)
    est_g, err_g = qr.mc_gaussian(2, g, 4 * N, seed=4)
    est_h, err_h = qr.mc_gaussian(2, h, 4 * N, seed=4)
    assert isinstance(est, complex)
    assert est.real == pytest.approx(est_g, rel=1e-13)
    assert est.imag == pytest.approx(est_h, rel=1e-13)
    assert err ** 2 == pytest.approx(err_g ** 2 + err_h ** 2, rel=1e-12)


def test_mc_input_validation():
    with pytest.raises(ValueError, match="dimension"):
        qr.mc_gaussian(0, lambda u: u[:, 0], 2 * N)
    with pytest.raises(ValueError, match="integrand"):
        qr.mc_gaussian(2, lambda u: np.zeros((len(u), 2)), 2 * N)
    # one shift gives no error estimate; 10^4 samples round up to two
    with pytest.raises(ValueError, match="two shifts"):
        qr.mc_gaussian(2, lambda u: u[:, 0], N)
    assert qr.mc_gaussian(2, lambda u: u[:, 0], 10_000)[1] > 0
