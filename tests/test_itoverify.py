"""Gaussian smoothings, Clark-Ocone sums, and the verification machinery."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from volterra_ito import itoverify
from volterra_ito import paths as paths_module
from volterra_ito.errors import DomainError, NumericalError
from volterra_ito.itoverify import (
    BLOCK_PATHS,
    TestFunction,
    VerificationReport,
    _co_sum_block,
    _gram_factor,
    _mc_mean_se,
    _res2_reference,
    _terminal_mean_se,
    verify_mean_identity,
    verify_multivariate,
    verify_pathwise_formula,
    verify_uniqueness_perturbation,
)
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TimeGrid,
    equal_energy_grid,
)
from volterra_ito.paths import (
    _normals_matrix,
    _weight_row,
    simulate_volterra,
    volterra_weights,
)

BM = BrownianKernel(horizon=1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
RL75 = RiemannLiouvilleKernel(hurst=0.75, horizon=1.0)
ES = ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0)
SIGNED = ExpSumKernel(weights=(1.0, -2.0), rates=(1.0, 10.0), horizon=1.0)


class TestTestFunction:
    def test_square(self):
        sq = TestFunction.square()
        x = np.linspace(-3, 3, 11)
        assert np.allclose(sq.phi(x), x * x)
        assert np.allclose(sq.dphi(x), 2 * x)
        assert np.allclose(sq.d2phi(x), 2.0)

    def test_cosine(self):
        c = TestFunction.cosine(2.0)
        x = np.linspace(-3, 3, 11)
        assert np.allclose(c.phi(x), np.cos(2 * x))
        assert np.allclose(c.dphi(x), -2 * np.sin(2 * x))
        assert np.allclose(c.d2phi(x), -4 * np.cos(2 * x))

    def test_labels_print_plain_numbers(self):
        assert TestFunction.polynomial([0, 0.5, 3]).label == "poly[0.0, 0.5, 3.0]"
        assert TestFunction.cosine(2).label == "cos(2.0x)"
        assert TestFunction.mollified_square(1.5).label == "x^2*eta(x/1.5)"

    def test_mollified_square_inside(self):
        m = TestFunction.mollified_square(cut=5.0)
        x = np.linspace(-5, 5, 21)
        assert np.allclose(m.phi(x), x * x)
        assert np.allclose(m.d2phi(x), 2.0)

    def test_mollified_square_outside(self):
        m = TestFunction.mollified_square(cut=1.0)
        x = np.array([-3.0, 2.5, 10.0])
        assert np.allclose(m.phi(x), 0.0)
        assert np.allclose(m.dphi(x), 0.0)
        assert np.allclose(m.d2phi(x), 0.0)

    def test_mollified_derivatives_match_finite_differences(self):
        m = TestFunction.mollified_square(cut=1.0)
        xs = np.linspace(1.05, 1.95, 7)  # transition region
        h = 1e-6
        d1_fd = (m.phi(xs + h) - m.phi(xs - h)) / (2 * h)
        d2_fd = (m.phi(xs + h) - 2 * m.phi(xs) + m.phi(xs - h)) / h ** 2
        assert np.allclose(m.dphi(xs), d1_fd, rtol=1e-6, atol=1e-8)
        assert np.allclose(m.d2phi(xs), d2_fd, rtol=1e-3, atol=1e-4)

    def test_phi_is_c2_continuous_at_seams(self):
        m = TestFunction.mollified_square(cut=1.0)
        for seam in (1.0, 2.0):
            left = m.d2phi(np.array([seam - 1e-9]))
            right = m.d2phi(np.array([seam + 1e-9]))
            assert abs(left - right) < 1e-5


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(32)


def _gauss_hermite(g, m, v):
    """E[g(m + sqrt(v) Z)] for Z ~ N(0,1), elementwise, by the 32-node
    Gauss-Hermite rule (exact for polynomials of degree <= 63): the oracle
    ``TestFunction.smooth`` is compared against. v = 0 gives g(m)."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    sig = np.sqrt(2.0 * v)
    out = np.zeros(np.broadcast(m, v).shape)
    for x, w in zip(_GH_NODES, _GH_WEIGHTS / math.sqrt(math.pi)):
        out = out + w * g(m + sig * x)
    out = np.where(v == 0.0, g(m), out)
    return float(out) if out.ndim == 0 else out


def test_reach_is_the_top_gauss_hermite_node():
    # the mollified square's exact-moment split was set by this rule
    assert itoverify._REACH == np.max(_GH_NODES)


class TestMehler:
    """The Mehler conditional expectation E[g(m + sqrt(v) Z)], which
    ``TestFunction.smooth`` computes, against closed forms and the
    Gauss-Hermite oracle."""

    def test_linear_mean(self):
        exact = TestFunction.polynomial([0.0, 2.0]).smooth(0, 1.5, 9.0)
        assert exact == 3.0
        assert _gauss_hermite(lambda x: 2.0 * x, 1.5, 9.0) == pytest.approx(
            exact, rel=1e-14)

    def test_pure_square(self):
        exact = TestFunction.square().smooth(0, 0.0, 1.0)
        assert exact == 1.0
        assert _gauss_hermite(np.square, 0.0, 1.0) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("s2", [0.25, 1.0, 2.0, 4.0])
    def test_cosine_characteristic_function(self, s2):
        want = math.exp(-s2 / 2.0)
        got = TestFunction.cosine().smooth(0, 0.0, s2)
        assert got == pytest.approx(want, rel=1e-15)
        assert _gauss_hermite(np.cos, 0.0, s2) == pytest.approx(want, abs=1e-10)

    def test_v_zero_exact(self):
        assert TestFunction.cosine().smooth(0, 0.7, 0.0) == np.cos(0.7)
        assert _gauss_hermite(np.cos, 0.7, 0.0) == np.cos(0.7)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            TestFunction.cosine().smooth(0, 0.0, -0.5)
        with pytest.raises(DomainError):
            TestFunction.cosine().smooth_square_mean(1, 1.0, -0.5)

    def test_gh_matches_moment_expansion_for_polynomials(self):
        # GH of order q integrates polynomials of degree <= 2q-1 exactly
        rng = np.random.default_rng(17)
        for _ in range(10):
            deg = int(rng.integers(1, 12))
            coeffs = rng.integers(-3, 4, size=deg + 1).astype(float)
            m, v = rng.normal(), rng.uniform(0.1, 2.0)
            exact = TestFunction.polynomial(coeffs).smooth(0, m, v)
            def p(x, c=coeffs):
                return np.polynomial.polynomial.polyval(x, c)
            gh = _gauss_hermite(p, m, v)
            scale = max(1.0, abs(exact))
            assert abs(gh - exact) <= 1e-12 * scale

    def test_array_broadcast(self):
        m = np.array([0.0, 1.0, -1.0])
        v = np.array([0.0, 1.0, 4.0])
        exact = TestFunction.polynomial([0.0, 2.0]).smooth(0, m, v)
        assert np.array_equal(exact, 2 * m)
        got = _gauss_hermite(lambda x: 2.0 * x, m, v)
        assert got.shape == m.shape
        assert np.allclose(got, exact, rtol=1e-14, atol=1e-14)


def _derivative(phi, order):
    return (phi.phi, phi.dphi, phi.d2phi)[order]


def _smoothing_oracle(g, m, v):
    """E[g(m + sqrt(v) Z)] for each element, by adaptive quadrature in z."""
    s = np.sqrt(v)

    def f(z):
        return g(m + s * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    return integrate.quad_vec(f, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13,
                              norm="max", limit=10000)[0]


class TestSmooth:
    """TestFunction.smooth against Gauss-Hermite and adaptive quadrature."""

    MS = np.array([-3.0, -1.1, -0.2, 0.0, 0.4, 1.7, 2.9])
    VS = np.array([0.0, 1e-3, 0.3, 1.0, 2.5])

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("phi", [
        TestFunction.polynomial([0.5, -1.0, 2.0, 0.3, -0.1]),
        TestFunction.square(),
        TestFunction.cosine(1.3),
        TestFunction.cosine(0.0),
        TestFunction.mollified_square(100.0),
    ], ids=["poly4", "square", "cos1.3", "cos0", "mollified100"])
    def test_matches_gauss_hermite(self, phi, order):
        m, v = np.meshgrid(self.MS, self.VS)
        got = phi.smooth(order, m, v)
        gh = _gauss_hermite(_derivative(phi, order), m, v)
        assert got.shape == m.shape
        np.testing.assert_allclose(got, gh, rtol=1e-13, atol=1e-13)
        scalar = phi.smooth(order, m[2, 4], v[2, 4])
        assert isinstance(scalar, float)
        assert scalar == got[2, 4]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_mollified_band_matches_quadrature_oracle(self, order):
        top = itoverify._REACH
        for cut in (1.0, 2.0, 5.0):
            phi = TestFunction.mollified_square(cut)
            g = _derivative(phi, order)
            split = cut - math.sqrt(2e-2) * top  # where v = 1e-2 meets the band
            ms = [sign * (edge + dm) for sign in (1.0, -1.0)
                  for edge in (cut, 2.0 * cut, split)
                  for dm in (0.0, -1e-12, 1e-12, -1e-3, 1e-3, -0.3, 0.3)]
            m, v = (a.ravel() for a in np.meshgrid(
                ms + [0.0, 3.0 * cut], [0.0, 1e-8, 1e-2, 1.0, 4.0]))
            got = phi.smooth(order, m, v)
            zero = v == 0.0
            assert np.array_equal(got[zero], g(m[zero]))
            want = _smoothing_oracle(g, m[~zero], v[~zero])
            np.testing.assert_allclose(got[~zero], want, rtol=1e-11, atol=1e-11)
            # the Gaussian stays inside the cutoff: exact x^2 moments, bit for bit
            inside = np.abs(m) + np.sqrt(2.0 * v) * top <= cut
            assert 0 < np.count_nonzero(inside) < inside.size
            exact = (m * m + v, 2.0 * m, np.full(m.shape, 2.0))[order]
            assert np.array_equal(got[inside], exact[inside])

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("phi", [
        TestFunction.polynomial([0.5, -1.0, 2.0, 0.3, -0.1]),
        TestFunction.square(),
        TestFunction.cosine(1.3),
        TestFunction.mollified_square(1.5),
    ], ids=["poly4", "square", "cos1.3", "mollified-band"])
    def test_in_place_output(self, phi, order):
        # the Clark-Ocone block smooths over its buffer of conditional means
        m = np.outer(np.linspace(-3.5, 3.5, 9), np.ones(5))
        v = self.VS
        want = phi.smooth(order, m, v)
        buf = m.copy()
        got = phi.smooth(order, buf, v, out=buf)
        assert got is buf
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("phi", [
        TestFunction.polynomial([0.5, -1.0, 2.0, 0.3, -0.1]),
        TestFunction.square(),
        TestFunction.cosine(1.3),
        TestFunction.mollified_square(1.5),
        TestFunction.mollified_square(0.3),
        TestFunction.mollified_square(100.0),
    ], ids=["poly4", "square", "cos1.3", "mollified1.5", "mollified0.3",
            "mollified100"])
    def test_square_mean_matches_quadrature(self, phi, order):
        s, v = (a.ravel() for a in np.meshgrid([1e-4, 0.3, 1.0, 4.0], self.VS))
        got, err = phi.smooth_square_mean(order, s, v)
        sd = np.sqrt(s)

        def f(x):  # x standard normal, M = sd x
            g = phi.smooth(order, sd * x, v)
            return g * g * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        want = integrate.quad_vec(f, -12.0, 12.0, epsabs=1e-14, epsrel=1e-12,
                                  norm="max", limit=10000)[0]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
        # the 64- vs 128-node gap: 0 for closed forms, within the band contract
        assert np.all(err <= 1e-9 * got)
        point, point_err = phi.smooth_square_mean(order, 0.0, v)  # s = 0: M = 0
        np.testing.assert_allclose(point, phi.smooth(order, 0.0, v) ** 2,
                                   rtol=1e-14, atol=1e-300)
        assert np.all(point_err == 0.0)

    def test_unresolved_band_rule_raises(self, monkeypatch):
        # a Gaussian 1000x narrower than the band, on the nodes shared by wide
        # elements: the 64- and 128-node rules disagree
        monkeypatch.setattr(itoverify, "_WIDE", 0.0)
        with pytest.raises(NumericalError) as exc:
            TestFunction.mollified_square(1.0).smooth(2, 1.5, 1e-6)
        assert exc.value.bound > 1e-9 * abs(exc.value.estimate)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            TestFunction.cosine().smooth(1, 0.0, -0.5)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_huge_cosine_frequency_does_not_raise(self, order):
        # a ** 4 raised OverflowError past |a| = 1e77 on every order; a
        # non-finite result is left to the report to refuse
        with np.errstate(all="ignore"):
            got, err = TestFunction.cosine(1e200).smooth_square_mean(order, 0.5, 0.1)
        assert err == 0.0
        assert (got == 0.0) if order == 0 else (not np.isfinite(got))

    @pytest.mark.parametrize("make", [
        lambda: TestFunction.cosine(float("nan")),
        lambda: TestFunction.cosine(float("inf")),
        lambda: TestFunction.mollified_square(float("nan")),
        lambda: TestFunction.mollified_square(float("inf")),
        lambda: TestFunction.mollified_square(-1.0),
        lambda: TestFunction.polynomial([1.0, float("nan")]),
        lambda: TestFunction.polynomial([float("-inf")]),
    ], ids=["freq-nan", "freq-inf", "cut-nan", "cut-inf", "cut-negative",
            "coeffs-nan", "coeffs-inf"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(DomainError):
            make()


def test_no_public_function_takes_a_quadrature_order():
    for fn in (TestFunction.smooth, verify_mean_identity,
               verify_pathwise_formula, verify_uniqueness_perturbation):
        assert "quad_order" not in inspect.signature(fn).parameters, fn.__name__


class TestClarkOconeSum:
    def test_zero_mean_divergence(self):
        # E[delta term] = 0 for every kernel/phi pair (adjointness with F = 1)
        grid = TimeGrid.uniform(64, 1.0)
        paths = 20000
        z = _normals_matrix(8, 0, paths, 64)
        for k in (BM, RL25, ES):
            w = _weight_row(k, grid.times, 64)
            for phi in (TestFunction.square(), TestFunction.cosine()):
                co = _co_sum_block(phi, w, z)
                se = co.std() / math.sqrt(paths)
                assert abs(co.mean()) <= 4.0 * se, (k.kind, phi.label)

    def test_signed_kernel_keeps_weight_signs(self):
        # phi = x^2: X_t^2 = |w|^2 + CO_t + sum_j w_j^2 (z_j^2 - 1) exactly,
        # which holds for X_t = Z w only if the sum keeps the signs of w
        grid = TimeGrid.uniform(64, 1.0)
        w = _weight_row(SIGNED, grid.times, 64)
        assert np.any(w < 0)
        assert np.array_equal(w, volterra_weights(SIGNED, grid)[64])
        z = _normals_matrix(5, 0, 200, 64)
        co = _co_sum_block(TestFunction.square(), w, z)
        x = z @ w
        np.testing.assert_allclose(x * x - np.sum(w * w) - co,
                                   (z * z - 1.0) @ (w * w), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("phi", [
        TestFunction.square(), TestFunction.polynomial([0.5, -1.0, 2.0, 0.3]),
        TestFunction.cosine(1.3), TestFunction.mollified_square(1.5),
    ], ids=["square", "cubic", "cos", "mollified-band"])
    def test_block_matches_reference_formula(self, phi):
        grid = TimeGrid.uniform(64, 1.0)
        w = volterra_weights(SIGNED, grid)[64]
        z = np.random.default_rng(3).standard_normal((300, 64))
        contrib = z * w
        m = np.concatenate([np.zeros((300, 1)), np.cumsum(contrib, axis=1)[:, :-1]],
                           axis=1)
        v = np.sum(w * w) - np.concatenate([[0.0], np.cumsum(w * w)[:-1]])
        want = np.sum(phi.smooth(1, m, v) * contrib, axis=1)  # the pre-lean block
        np.testing.assert_allclose(_co_sum_block(phi, w, z), want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("phi", [TestFunction.square(), TestFunction.cosine()],
                             ids=["square", "cos"])
    def test_block_holds_two_block_buffers(self, phi):
        # the increments and the conditional means, smoothed in place
        z = np.random.default_rng(4).standard_normal((4096, 256))
        w = volterra_weights(RL25, TimeGrid.uniform(256, 1.0))[256]
        tracemalloc.start()
        try:
            _co_sum_block(phi, w, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * z.nbytes + 2 ** 20

    def test_brownian_square_is_ito_sum(self):
        # phi = x^2 on Brownian: the CO sum is exactly 2 sum W_j dW_j
        grid = TimeGrid.uniform(32, 1.0)
        x = simulate_volterra(BM, grid, 50, seed=9)
        z = _normals_matrix(9, 0, 50, 32)
        co = _co_sum_block(TestFunction.square(), _weight_row(BM, grid.times, 32), z)
        manual = 2.0 * np.sum(x[:, :-1] * z * np.sqrt(np.diff(grid.times)), axis=1)
        assert np.allclose(co, manual, rtol=1e-10, atol=1e-12)

    def test_tower_property(self):
        # E[E[phi'(X_t) | F_r]] = E[phi'(X_t)] for every r
        grid = TimeGrid.uniform(32, 1.0)
        paths = 20000
        phi = TestFunction.cosine()
        t_idx = 32
        times = grid.times
        mass = RL25.cell_l2_rows(1.0, times[:t_idx], times[1:t_idx + 1])
        w = np.sqrt(mass)
        z = _normals_matrix(10, 0, paths, t_idx)
        means = []
        for r in (0, 8, 16, 24, 32):
            m = z[:, :r] @ w[:r]
            v = float(np.sum(mass[r:]))
            vals = phi.smooth(1, m, np.full(paths, v))
            means.append((vals.mean(), vals.std() / math.sqrt(paths)))
        ref = means[0][0]
        for mean, se in means[1:]:
            assert abs(mean - ref) <= 4.0 * (se + means[0][1])

    def test_endpoint_integrand_constant(self):
        # at r=0 the integrand is E[phi'(X_t)] K(t, .): check the constant
        phi = TestFunction.cosine()
        gamma_t = 1.0
        got = phi.smooth(1, 0.0, gamma_t)
        want = integrate.quad(
            lambda x: phi.dphi(x) * stats.norm.pdf(x, scale=1.0), -12, 12
        )[0]
        assert got == pytest.approx(want, abs=1e-12)


class TestMonteCarloReducer:
    @staticmethod
    def sample(offset):
        def draw(z):
            # skewed and heavy-tailed, so block means and spreads differ and
            # the merge term matters
            return offset + np.exp(z[:, 0]) * (1.0 + z[:, 1] ** 2)
        return draw

    @pytest.mark.parametrize("offset", [0.0, 3.0, 1e8])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_numpy_on_uneven_blocks(self, offset, threads):
        paths = 2 * BLOCK_PATHS + 17
        draw = self.sample(offset)
        # rows are keyed by absolute path index: one matrix holds every block's
        allv = draw(_normals_matrix(11, 0, paths, 3))
        mean, se = _mc_mean_se(draw, paths, 11, 3, threads)
        assert mean == pytest.approx(np.mean(allv), rel=1e-14, abs=1e-14)
        # block means carry rounding of order eps * |offset|, which the merge
        # term passes on to the SE in proportion to |offset| / spread
        rel = 1e-14 * max(1.0, offset)
        assert se == pytest.approx(np.std(allv) / math.sqrt(paths), rel=rel)

    def test_se_survives_large_offset(self):
        # c + x^2: adding c must not move the SE (E[x^2] - mean^2 cancelled).
        # verify_mean_identity drops a polynomial's constant, so the sample
        # goes to the reducer directly
        def se(c):
            return _mc_mean_se(lambda z: c + z[:, 0] ** 2, 20000, 1, 1, 1)[1]

        base = se(0.0)
        assert base > 0.0
        for c in (1e10, 1e12):
            assert se(c) == pytest.approx(base, rel=1e-6)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_underflowing_spread_is_refused(self, threads):
        # deviations of 1e-300 square to 0: the SE would read 0, not 1e-302
        with pytest.raises(NumericalError, match="standard error underflows"):
            _mc_mean_se(lambda z: 1e-300 * z[:, 0], 2 * BLOCK_PATHS, 11, 1, threads)
        # a constant sample whose mean is exact has no spread to lose
        assert _mc_mean_se(lambda z: np.full(len(z), 2.0 ** -1000), 100, 11, 1,
                           threads) == (2.0 ** -1000, 0.0)
        # nor has one whose mean rounds: 100 copies of 1e-300 average to an
        # ulp off 1e-300, and those deviations' squares underflow
        mean, se = _mc_mean_se(lambda z: np.full(len(z), 1e-300), 100, 11, 1,
                               threads)
        assert mean == pytest.approx(1e-300, rel=1e-15)
        assert se == 0.0

    @pytest.mark.parametrize("paths, n_draws", [
        (2 ** 32 + 4096, 8), (100, 2 ** 32 + 1),
    ], ids=["streams", "counters"])
    def test_range_past_the_streams_draws_nothing(self, paths, n_draws):
        # only the block past 2^32 streams was refused, so the first block
        # drew and sampled 4096 rows first
        calls = []

        def sample(z):
            calls.append(len(z))
            raise AssertionError(f"sampled {len(z)} rows before the refusal")

        with pytest.raises(DomainError, match=r"must lie in \[0, 2\^32\)"):
            _mc_mean_se(sample, paths, 1, n_draws, 1)
        assert calls == []

    def test_terminal_value_matches_full_path(self):
        # drawing only the normals X_t reads gives X_t of the full simulation
        grid = TimeGrid.uniform(48, 1.0)
        t_idx = 29
        phi = TestFunction.cosine(1.3)
        w = _weight_row(SIGNED, grid.times, t_idx)
        mean, _ = _mc_mean_se(lambda z: phi.phi(z @ w), 300, 17, t_idx, 1)
        x = simulate_volterra(SIGNED, grid, 300, 17)
        assert mean == pytest.approx(np.mean(phi.phi(x[:, t_idx])), rel=1e-12)


class TestTerminalSampling:
    """The terminal checks draw X_t from its exact Gaussian law: the first
    one or two normals of each path's stream, scaled by the Gram factor."""

    def test_mean_sample_is_the_scaled_first_normal(self):
        grid = TimeGrid.uniform(48, 1.0)
        w = _weight_row(SIGNED, grid.times, 29)
        paths = BLOCK_PATHS + 17
        seen = []

        def sample(x):
            seen.append(x.copy())
            return x

        _terminal_mean_se(sample, [w], paths, 17, 1)
        want = np.linalg.norm(w) * _normals_matrix(17, 0, paths, 1)[:, 0]
        assert np.array_equal(np.concatenate(seen), want)

    @pytest.mark.parametrize("k1, k2, t_idx", [
        (RL25, BM, 48), (BM, BM, 48), (RL25, BM, 0)],
        ids=["rl025-brownian", "brownian-rank-1", "t-0"])
    def test_factor_reproduces_gram(self, k1, k2, t_idx):
        grid = TimeGrid.uniform(64, 1.0)
        rows = [_weight_row(k, grid.times, t_idx) for k in (k1, k2)]
        gram = np.array([[a @ b for b in rows] for a in rows])
        f = _gram_factor(rows)
        assert np.array_equal(f, np.tril(f))
        assert np.all(np.abs(f @ f.T - gram)
                      <= 4 * np.finfo(float).eps * np.max(np.abs(gram)))


class TestStreamedReducer:
    """_mc_mean_se draws and samples each block in row chunks; the result is
    that of the whole block's normals in one matrix."""

    PATHS = 2 * BLOCK_PATHS + 17

    @staticmethod
    def samples(t_idx):
        grid = TimeGrid.uniform(64, 1.0)
        w1 = _weight_row(RL25, grid.times, t_idx)
        w2 = _weight_row(BM, grid.times, t_idx)
        cos = TestFunction.cosine(1.3)
        sq = TestFunction.square()

        def res2(z):
            res = sq.phi(z @ w1) - 0.3 - _co_sum_block(sq, w1, z)
            return res * res

        return {"mean": lambda z: cos.phi(z @ w1),
                "xy": lambda z: (z @ w1) * (z @ w2),
                "pathwise": res2}

    @staticmethod
    def whole_blocks(sample, paths, seed, t_idx):
        starts = range(0, paths, BLOCK_PATHS)
        vals = np.concatenate([
            sample(_normals_matrix(seed, s, min(BLOCK_PATHS, paths - s), t_idx))
            for s in starts])
        return np.mean(vals), np.std(vals) / math.sqrt(paths)

    # 48 normals a row make chunks of 680 rows, which do not divide a block;
    # at t_idx = 0 a chunk is the whole block. The Clark-Ocone sum needs a
    # cell, and no check reads X_0, so the pathwise sample starts at 1.
    @pytest.mark.parametrize("name, t_idx", [
        ("mean", 48), ("mean", 0), ("xy", 48), ("xy", 0),
        ("pathwise", 48), ("pathwise", 1),
    ])
    def test_matches_whole_block_matrix(self, name, t_idx):
        sample = self.samples(t_idx)[name]
        mean, se = _mc_mean_se(sample, self.PATHS, 19, t_idx, 1)
        want_mean, want_se = self.whole_blocks(sample, self.PATHS, 19, t_idx)
        assert mean == pytest.approx(want_mean, rel=1e-13, abs=0.0)
        assert se == pytest.approx(want_se, rel=1e-13, abs=0.0)
        assert (mean, se) == _mc_mean_se(sample, self.PATHS, 19, t_idx, 3)

    @pytest.mark.parametrize("check", ["pathwise", "multivariate", "mean"])
    def test_peak_memory_is_chunk_sized(self, check):
        # one 4096 x 1024 block of normals alone is 32 MiB
        grid = TimeGrid.uniform(1024, 1.0)
        run = {
            "pathwise": lambda: verify_pathwise_formula(
                RL25, TestFunction.square(), grid, 4096, 42, 1.0),
            "multivariate": lambda: verify_multivariate(
                RL25, BM, grid, 8192, 42, 1.0),
            "mean": lambda: verify_mean_identity(
                RL25, TestFunction.square(), grid, 8192, 42, 1.0),
        }[check]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestMeanIdentity:
    def test_square_both_sides_gamma(self):
        # phi = x^2: E[X_t^2] = Gamma(t) and the correction is Gamma(t)
        grid = TimeGrid.uniform(128, 1.0)
        rep = verify_mean_identity(RL25, TestFunction.square(), grid, 0, 1, 1.0)
        assert rep.passed
        assert rep.detail["residual_quadrature"] <= 1e-10
        assert rep.estimate == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
    def test_cosine_closed_form(self, hurst):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        grid = equal_energy_grid(k, 1024)
        rep = verify_mean_identity(k, TestFunction.cosine(), grid, 0, 1, 1.0)
        lhs_closed = math.exp(-0.5)
        assert abs(rep.detail["lhs_quadrature"] - lhs_closed) <= 1e-10
        assert rep.detail["residual_quadrature"] <= 1e-6
        assert rep.passed

    def test_mollified_square_reduces_to_square(self):
        grid = TimeGrid.uniform(256, 1.0)
        rep = verify_mean_identity(
            RL25, TestFunction.mollified_square(), grid, 0, 1, 1.0
        )
        assert rep.detail["residual_quadrature"] <= 1e-8
        assert rep.passed

    def test_monte_carlo_route(self):
        grid = TimeGrid.uniform(64, 1.0)
        rep = verify_mean_identity(RL25, TestFunction.square(), grid, 20000, 42, 1.0)
        assert rep.se > 0
        assert rep.passed

    def test_t_off_grid_rejected(self):
        grid = TimeGrid.uniform(64, 1.0)
        with pytest.raises(DomainError):
            verify_mean_identity(RL25, TestFunction.square(), grid, 0, 1, 0.503)

    @pytest.mark.parametrize("hurst", [0.1, 0.25])
    def test_uniform_grid_bias_bounds_the_error(self, hurst):
        # dGamma is singular at s = 0 for H < 1/2; the grid does not enter c
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        rep = verify_mean_identity(k, TestFunction.cosine(),
                                   TimeGrid.uniform(256, 1.0), 0, 1, 1.0)
        assert abs(rep.reference - math.exp(-0.5)) <= rep.bias_bound
        assert rep.passed

    @pytest.mark.parametrize("gamma_t", [1e-8, 1e-4, 0.01, 0.18, 1.0, 10.0])
    @pytest.mark.parametrize("phi", [
        *(TestFunction.cosine(a) for a in (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)),
        *(TestFunction.mollified_square(c) for c in (0.01, 0.1, 0.25, 1.0, 2.0,
                                                    10.0, 100.0)),
        TestFunction.polynomial([0, 0, 0, 0, 1]), TestFunction.square(),
    ], ids=lambda phi: phi.label)
    def test_correction_bound_covers_the_exact_mean(self, phi, gamma_t):
        # E[phi(sqrt(Gamma) Z)]: exp(-a^2 Gamma / 2) for cos(a x), Gaussian
        # moments for polynomials and the mollified square's own smoothing
        c, b = itoverify._correction(phi, gamma_t)
        if phi.family == "cosine":
            exact = math.exp(-0.5 * phi.freq ** 2 * gamma_t)
        else:
            exact = phi.smooth(0, 0.0, gamma_t)
        assert abs(c - exact) <= b
        assert 0.0 < b <= 2e-12 * max(1.0, abs(c))

    @pytest.mark.parametrize("check", [
        lambda phi, grid: verify_mean_identity(BM, phi, grid, 0, 1, 1.0),
        lambda phi, grid: verify_pathwise_formula(BM, phi, grid, 100, 1, 1.0),
    ], ids=["mean", "path"])
    def test_integrand_inside_the_first_cell_raises(self, check):
        # E[phi''(X_s)] = -a^2 exp(-a^2 s / 2) is 0 at every midpoint of the
        # grid, whose rule gave c = 1 against E cos(a X_1) = 0: was a FAIL.
        # Its mass lies below Gamma 2^-64, where no split within budget sees it
        with pytest.raises(NumericalError, match="unresolved"):
            check(TestFunction.cosine(1e100), TimeGrid.uniform(16, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: TestFunction.cosine(1e300),
        lambda: TestFunction.polynomial([0.0, 0.0, 1e308]),
    ], ids=["cos-a2-overflows", "poly-phi2-overflows"])
    def test_non_finite_correction_raises_at_once(self, make):
        # a^2 = inf makes cos's smoothing NaN at every node, and phi'' = 2e308
        # = inf makes c infinite; all 9 splits used to be tried first
        with np.errstate(all="ignore"):
            phi = make()
        real = phi.smooth
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        phi.smooth = counted
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="is not finite"):
            itoverify._correction(phi, 1.0)
        assert calls == [2]

    @pytest.mark.parametrize("gamma_t", [math.inf, math.nan])
    def test_non_finite_gamma_is_refused_by_name(self, gamma_t):
        # an infinite Gamma(t) was reported as a non-finite correction
        with pytest.raises(NumericalError,
                           match=r"^the energy function Gamma\(t\) is not finite$"):
            itoverify._correction(TestFunction.square(), gamma_t)

    def test_integrand_linear_in_the_first_cell_is_resolved(self):
        # phi = x^4 on Brownian: E[phi''(X_s)] = 12 s, which both panel rules
        # integrate exactly, so the bound is the floor 1e-12 max(1, |c|)
        rep = verify_mean_identity(BM, TestFunction.polynomial([0, 0, 0, 0, 1]),
                                   TimeGrid.uniform(16, 1.0), 0, 1, 1.0)
        assert rep.reference == pytest.approx(3.0, rel=1e-14)
        assert rep.bias_bound == pytest.approx(3e-12)
        assert rep.passed


class TestPathwise:
    def test_constant_phi_zero_residual(self):
        grid = TimeGrid.uniform(32, 1.0)
        rep = verify_pathwise_formula(
            BM, TestFunction.polynomial([3.0]), grid, 500, 5, 1.0
        )
        assert rep.estimate <= 1e-28
        assert rep.passed

    def test_brownian_square_exact_variance(self):
        n = 128
        rep = verify_pathwise_formula(
            BM, TestFunction.square(), TimeGrid.uniform(n, 1.0), 40000, 6, 1.0
        )
        want = 2.0 / n
        assert rep.estimate == pytest.approx(want, rel=0.1)
        assert rep.passed

    def test_ladder_monotone(self):
        grids = [TimeGrid.uniform(2 ** j, 1.0) for j in (4, 6, 8)]
        rep = verify_pathwise_formula(
            RL25, TestFunction.square(), grids, 20000, 7, 1.0
        )
        ests = [r["estimate"] for r in rep.detail["ladder"]]
        assert ests[0] > ests[-1]
        assert rep.detail["monotone"]
        assert rep.passed


    @pytest.mark.parametrize("phi", [
        TestFunction.cosine(), TestFunction.mollified_square(1.5),
    ], ids=["cos", "mollified1.5"])
    @pytest.mark.parametrize("k", [BM, RL25, RL75], ids=["brownian", "rl025", "rl075"])
    def test_leading_term_matches_monte_carlo(self, k, phi):
        # the exact reference Var phi(X_t) - E[CO_t^2], whose leading Hermite
        # term 1/2 sum_j w_j^4 E[E[phi''(X_t) | F_(s_j)]^2] alone falls short
        rep = verify_pathwise_formula(k, phi, TimeGrid.uniform(128, 1.0), 4096,
                                      42, 1.0)
        final = rep.detail["ladder"][-1]
        ref = final["reference"]
        assert abs(rep.estimate - ref) <= 4.0 * rep.se
        b = rep.detail["stieltjes_bias"]
        slack = final["reference_error"] + b * b + final["floor"]
        assert rep.reference == ref
        assert rep.bias_bound == slack
        assert rep.passed

    @pytest.mark.parametrize("k", [BM, RL25, RL75, SIGNED])
    def test_square_leading_term_is_exact(self, k):
        # phi = x^2: res = sum_j w_j^2 (z_j^2 - 1) up to rounding, E[res^2] = 2 sum w^4
        grid = TimeGrid.uniform(64, 1.0)
        w = _weight_row(k, grid.times, 64)
        ref, err, _ = _res2_reference(TestFunction.square(), w)
        assert abs(ref - 2.0 * np.sum(w ** 4)) <= err
        rep = verify_pathwise_formula(k, TestFunction.square(), grid, 8192, 3, 1.0)
        assert abs(rep.estimate - rep.detail["ladder"][-1]["reference"]) <= 4.0 * rep.se
        assert rep.passed

    def test_rough_mollified_square_closes_with_many_paths(self):
        # rl 0.25, cut 1.5, n = 32: the higher Hermite terms are 24% of E[res^2],
        # so 65,536 paths resolve any approximate reference
        rep = verify_pathwise_formula(RL25, TestFunction.mollified_square(1.5),
                                      TimeGrid.uniform(32, 1.0), 65536, 42, 1.0)
        ref = rep.detail["ladder"][-1]["reference"]
        assert abs(rep.estimate - ref) <= 2.0 * rep.se
        assert rep.passed

    @staticmethod
    def constant_shifted_reports():
        # the constant cancels in res and is dropped before c and res are formed
        grid = TimeGrid.uniform(256, 1.0)
        return [verify_pathwise_formula(RL25, TestFunction.polynomial(coeffs),
                                        grid, 4096, 5, 1.0)
                for coeffs in ([0.0, 0.0, 1.0], [1e12, 0.0, 1.0], [1e300, 0.0, 1.0])]

    def test_large_constant_drops_out_of_the_reference(self):
        w = _weight_row(RL25, TimeGrid.uniform(256, 1.0).times, 256)
        ref, err, _ = _res2_reference(TestFunction.square(), w)
        assert ref == pytest.approx(2.0 * np.sum(w ** 4), rel=1e-12)
        assert err <= 1e-13
        square, *shifted = self.constant_shifted_reports()
        assert square.detail["ladder"][-1]["reference"] == ref
        assert square.passed
        for rep in shifted:  # was a vacuous bias_bound at 1e12, an OverflowError at 1e300
            assert rep.to_dict() == square.to_dict()
            assert rep.detail == square.detail

    def test_large_constant_keeps_a_wrong_correction_detectable(self, monkeypatch):
        # c off by 0.05 adds 0.0025 to E[res^2], against 0.0186
        correction = itoverify._correction
        monkeypatch.setattr(itoverify, "_correction",
                            lambda *a: (lambda c, b: (c + 0.05, b))(*correction(*a)))
        for rep in self.constant_shifted_reports():
            assert not rep.passed

    def test_linear_phi_residual_is_rounding(self):
        # phi = 3 + 1000 x: CO_t is 1000 X_t, so only rounding is left
        rep = verify_pathwise_formula(RL25, TestFunction.polynomial([3.0, 1e3]),
                                      TimeGrid.uniform(256, 1.0), 4096, 5, 1.0)
        final = rep.detail["ladder"][-1]
        assert abs(final["reference"]) <= final["reference_error"] <= 1e-8
        assert 0.0 < rep.estimate <= 1e-20
        assert rep.passed

    def test_wrong_correction_is_detected(self, monkeypatch):
        # a correction off by 0.05 adds 0.0025 to E[res^2]; the Stieltjes bias
        # bound enters squared and does not absorb it
        correction = itoverify._correction
        monkeypatch.setattr(itoverify, "_correction",
                            lambda *a: (lambda c, b: (c + 0.05, b))(*correction(*a)))
        rep = verify_pathwise_formula(BM, TestFunction.cosine(),
                                      TimeGrid.uniform(256, 1.0), 4096, 42, 1.0)
        assert rep.estimate > rep.z * rep.se + rep.bias_bound
        assert not rep.passed

    def test_estimate_below_reference_fails(self, monkeypatch):
        # a reference 0.01 too high passes the upper side alone
        exact = itoverify._res2_reference
        monkeypatch.setattr(itoverify, "_res2_reference",
                            lambda phi, w: (lambda r: (r[0] + 0.01, *r[1:]))(exact(phi, w)))
        rep = verify_pathwise_formula(BM, TestFunction.cosine(),
                                      TimeGrid.uniform(256, 1.0), 4096, 42, 1.0)
        assert rep.reference - rep.estimate > rep.z * rep.se + rep.bias_bound
        assert not rep.passed

    @pytest.mark.parametrize("k", [BM, RL25], ids=["brownian", "rl025"])
    def test_wrong_residual_variance_fails(self, k, monkeypatch):
        # v_j taken after cell j instead of from it on
        masses = itoverify._prefix_masses
        monkeypatch.setattr(itoverify, "_prefix_masses",
                            lambda w: (lambda s, v: (s, v - w * w))(*masses(w)))
        rep = verify_pathwise_formula(k, TestFunction.cosine(),
                                      TimeGrid.uniform(256, 1.0), 4096, 42, 1.0)
        assert not rep.passed

    @pytest.mark.parametrize("phi", [TestFunction.square(), TestFunction.cosine()],
                             ids=["square", "cos"])
    def test_dropped_weight_sign_fails(self, phi, monkeypatch):
        # a Clark-Ocone sum on |w| for a kernel with a negative exp-sum weight
        co_sum = itoverify._co_sum_block
        monkeypatch.setattr(itoverify, "_co_sum_block",
                            lambda phi, w, z: co_sum(phi, np.abs(w), z))
        rep = verify_pathwise_formula(SIGNED, phi, TimeGrid.uniform(256, 1.0),
                                      4096, 42, 1.0)
        assert not rep.passed

    def test_never_simulates_whole_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_pathwise_formula simulated whole paths")

        for name in ("simulate_volterra", "volterra_weights"):
            monkeypatch.setattr(paths_module, name, refuse)
            monkeypatch.setattr(itoverify, name, refuse, raising=False)
        grids = [TimeGrid.uniform(16, 1.0), TimeGrid.uniform(64, 1.0)]
        for phi in (TestFunction.square(), TestFunction.cosine(),
                    TestFunction.mollified_square(1.5)):
            assert verify_pathwise_formula(RL25, phi, grids, 300, 1, 1.0).passed

    def test_off_terminal_time_and_odd_cell_count(self):
        # t = 0.5 on 50 cells: the weights and the normals stop at an odd
        # interior index
        grid = TimeGrid.uniform(50, 1.0)
        rep = verify_pathwise_formula(RL25, TestFunction.square(), grid, 8192, 4, 0.5)
        w = _weight_row(RL25, grid.times, 25)
        final = rep.detail["ladder"][-1]
        assert abs(final["reference"] - 2.0 * np.sum(w ** 4)) <= final["reference_error"]
        assert rep.passed


class TestMultivariate:
    def test_brownian_pair_xy(self):
        grid = TimeGrid.uniform(64, 1.0)
        rep = verify_multivariate(BM, BM, grid, 20000, 9, 1.0)
        assert rep.reference == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_rl_brownian_cross(self):
        grid = TimeGrid.uniform(256, 1.0)
        rep = verify_multivariate(RL25, BM, grid, 20000, 10, 1.0)
        assert rep.reference == pytest.approx(math.sqrt(0.5) * 4 / 3, rel=1e-10)
        assert rep.passed


class TestUniqueness:
    def test_mollified_square_exact_shift(self):
        # residual = eps * t exactly on the quadrature route
        grid = equal_energy_grid(RL25, 256)
        rep = verify_uniqueness_perturbation(
            RL25, TestFunction.mollified_square(), 0.01, grid, 1.0
        )
        assert rep.estimate == pytest.approx(0.01, rel=1e-10)
        assert rep.passed

    def test_eps_zero_refused(self):
        # eps = 0 returned the plain mean identity's report from this check
        grid = equal_energy_grid(RL25, 128)
        with pytest.raises(DomainError, match="eps"):
            verify_uniqueness_perturbation(
                RL25, TestFunction.mollified_square(), 0.0, grid, 1.0)

    def test_signature_is_exact_only(self):
        # the Monte Carlo route reran verify_mean_identity with paths > 0
        assert list(inspect.signature(verify_uniqueness_perturbation).parameters) == [
            "k", "phi", "eps", "grid", "t"]

    @pytest.mark.parametrize("const", [1e12, -3.0, 0.0])
    def test_polynomial_constant_is_dropped(self, const):
        # the constant cancels in residual and threshold; left in, 1e12 made
        # the bias floor 1e-12 max(1, |c|) = 1.0, above the 0.01 residual
        grid = TimeGrid.uniform(256, 1.0)
        rep = verify_uniqueness_perturbation(
            RL25, TestFunction.polynomial([const, 0.0, 1.0]), 0.01, grid, 1.0)
        want = verify_uniqueness_perturbation(RL25, TestFunction.square(), 0.01,
                                              grid, 1.0)
        assert rep.to_dict() == want.to_dict()
        assert rep.bias_bound < 1e-11
        assert rep.passed

    def test_cosine_oracle(self):
        # residual = (eps/2) int_0^1 exp(-sqrt(s)/2) ds = (eps/2)(8 - 12 e^{-1/2})
        grid = equal_energy_grid(RL25, 1024)
        rep = verify_uniqueness_perturbation(
            RL25, TestFunction.cosine(), 0.01, grid, 1.0
        )
        want = 0.5 * 0.01 * (8.0 - 12.0 * math.exp(-0.5))
        assert rep.estimate == pytest.approx(want, rel=1e-3)
        assert rep.passed

    @pytest.mark.parametrize("phi", [
        TestFunction.cosine(), TestFunction.mollified_square(1.5),
    ], ids=["cos", "mollified1.5"])
    @pytest.mark.parametrize("k", [BM, RL25], ids=["brownian", "rl025"])
    def test_lebesgue_quadrature_error_cancels(self, k, phi, monkeypatch):
        # rhs_nu - reference and the threshold share L: an error of 1e-3 in L
        # moves rhs_perturbed but neither the verdict nor residual - threshold
        grid = TimeGrid.uniform(64, 1.0)

        def run():
            rep = verify_uniqueness_perturbation(k, phi, 0.01, grid, 1.0)
            close = abs(rep.estimate - rep.reference) <= rep.detail["combined_tolerance"]
            return rep.passed, close, rep.detail["rhs_perturbed"]

        passed, close, rhs = run()
        lebesgue = itoverify._lebesgue_term
        monkeypatch.setattr(itoverify, "_lebesgue_term",
                            lambda *a: (1.0 + 1e-3) * lebesgue(*a))
        scaled = run()
        assert scaled[:2] == (passed, close)
        assert close and scaled[2] != rhs
        assert passed

    @pytest.mark.parametrize("offset", [-0.05, -0.005, 0.005, 0.05])
    @pytest.mark.parametrize("k", [BM, RL25], ids=["brownian", "rl025"])
    def test_wrong_correction_fails(self, k, offset, monkeypatch):
        # c off by the offset fails the mean identity, and residual - threshold
        # is off by it too; the + offsets passed while the mean identity's
        # observed residual was part of the tolerance
        correction = itoverify._correction
        monkeypatch.setattr(itoverify, "_correction",
                            lambda *a: (lambda c, b: (c + offset, b))(*correction(*a)))
        rep = verify_uniqueness_perturbation(k, TestFunction.mollified_square(), 0.01,
                                             equal_energy_grid(k, 256), 1.0)
        assert rep.identity == "uniqueness_perturbation"
        assert abs(rep.estimate - rep.reference) > rep.detail["combined_tolerance"]
        assert not rep.passed

    def test_undetectable_perturbation_fails(self):
        # eps = 1e-13 moves the right side by less than the correction's bound
        rep = verify_uniqueness_perturbation(RL25, TestFunction.mollified_square(),
                                             1e-13, equal_energy_grid(RL25, 256),
                                             1.0)
        assert rep.reference <= rep.detail["combined_tolerance"]
        assert not rep.passed

    @pytest.mark.parametrize("k", [BM, RL25], ids=["brownian", "rl025"])
    def test_residual_inside_the_tolerance_fails(self, k):
        # threshold = 0.5 bias_bound: the residual is within one bias_bound of
        # the threshold, so the identity rule alone passes, but a residual of
        # at most one tolerance means Gamma + eps*s passes the mean identity too
        grid, phi = TimeGrid.uniform(16, 1.0), TestFunction.cosine()
        lebesgue = itoverify._lebesgue_term(k, phi, grid.times)
        base = verify_mean_identity(k, phi, grid, 0, 0, 1.0)
        eps = base.bias_bound / abs(lebesgue)
        rep = verify_uniqueness_perturbation(k, phi, eps, grid, 1.0)
        assert base.passed
        assert rep.reference == pytest.approx(0.5 * rep.detail["combined_tolerance"])
        assert abs(rep.estimate - rep.reference) <= rep.bias_bound
        assert rep.detail["detection_ratio"] <= 1.0
        assert not rep.passed

    def test_detection_strength(self):
        for k in (BM, RL25, ES):
            grid = equal_energy_grid(k, 512)
            rep = verify_uniqueness_perturbation(
                k, TestFunction.mollified_square(), 0.01, grid, 1.0
            )
            assert rep.detail["detection_ratio"] >= 5.0


class TestReportSchema:
    @pytest.mark.parametrize("key", ["estimate", "reference", "se", "bias_bound"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_raises(self, key, value):
        fields = dict(identity="mean_identity", estimate=1.0, reference=1.0, se=0.0,
                      bias_bound=0.0, grid_n=8, paths=0, seed=1, passed=True)
        VerificationReport(**fields)
        with pytest.raises(NumericalError, match=f"not finite in {key}"):
            VerificationReport(**{**fields, key: value})

    def test_json_keys(self):
        grid = TimeGrid.uniform(32, 1.0)
        rep = verify_mean_identity(BM, TestFunction.square(), grid, 0, 1, 1.0)
        d = rep.to_dict()
        assert set(d) == {
            "identity", "estimate", "reference", "se", "bias_bound",
            "grid_n", "paths", "seed", "pass", "z",
        }
        assert d["pass"] is True
        assert d["z"] == 4.0

    def test_threads_bit_identical(self):
        grid = TimeGrid.uniform(64, 1.0)
        args = (RL25, TestFunction.square(), grid, 10000, 3, 1.0)
        r1 = verify_mean_identity(*args, threads=1)
        r2 = verify_mean_identity(*args, threads=4)
        assert r1.to_dict() == r2.to_dict()
        p1 = verify_pathwise_formula(*args, threads=1)
        p2 = verify_pathwise_formula(*args, threads=3)
        assert p1.to_dict() == p2.to_dict()
        multi = (RL25, BM, grid, 10000, 3, 1.0)
        m1 = verify_multivariate(*multi, threads=1)
        m2 = verify_multivariate(*multi, threads=3)
        assert m1.to_dict() == m2.to_dict()

    @pytest.mark.parametrize("phi", [
        TestFunction.cosine(), TestFunction.mollified_square(1.5),
    ], ids=["cos", "mollified-band"])
    def test_threads_bit_identical_smoothing(self, phi):
        grid = TimeGrid.uniform(16, 1.0)
        args = (RL25, phi, grid, BLOCK_PATHS + 100, 5, 1.0)
        p1 = verify_pathwise_formula(*args, threads=1)
        p3 = verify_pathwise_formula(*args, threads=3)
        assert p1.to_dict() == p3.to_dict()

    @pytest.mark.parametrize("check, args", [
        (verify_mean_identity, (BM, TestFunction.square())),
        (verify_pathwise_formula, (BM, TestFunction.square())),
        (verify_multivariate, (BM, BM)),
    ], ids=["mean", "path", "multi"])
    def test_z_is_not_settable(self, check, args):
        # a caller's z = 1000 turned a FAIL into a PASS
        with pytest.raises(TypeError, match="'z'"):
            check(*args, TimeGrid.uniform(8, 1.0), 10, 1, 1.0, z=1000.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        grid = TimeGrid.uniform(8, 1.0)
        with pytest.raises(DomainError):
            verify_uniqueness_perturbation(BM, TestFunction.square(), eps,
                                           grid, 1.0)
