"""Path simulation: reproducibility, exact variances, distributional checks."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from volterra_ito.bracket import energy_function
from volterra_ito.errors import DomainError
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TimeGrid,
    covariance,
)
from volterra_ito.paths import (
    _CHOLESKY_SALT,
    _CHUNK_WORDS,
    SIM_BUDGET,
    _mix64,
    _normals_matrix,
    simulate_cholesky,
    simulate_volterra,
    volterra_weights,
)

from kernel_helpers import brownian_table, ragged_table

BM = BrownianKernel(horizon=1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
ES = ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0)
KERNELS = [BM, RL25, RiemannLiouvilleKernel(hurst=0.75, horizon=1.0), ES]


class TestRngStream:
    """One stream of ``_normals_matrix``: row s of seed's draws."""

    def test_pure_function_of_state(self):
        a = _normals_matrix(42, 3, 1, 16)
        b = _normals_matrix(42, 3, 1, 16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = _normals_matrix(42, 0, 1, 16)
        b = _normals_matrix(42, 1, 1, 16)
        assert not np.array_equal(a, b)

    def test_moments(self):
        z = _normals_matrix(1, 0, 1, 200000)[0]
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        assert abs(stats.skew(z)) < 0.03

    def test_counter_range_past_2_32_refused(self):
        # refused before anything is allocated; no rows need no memory
        assert _normals_matrix(1, 0, 0, 2 ** 32).shape == (0, 2 ** 32)
        with pytest.raises(DomainError):
            _normals_matrix(1, 0, 1, 2 ** 32 + 1)

    def test_stream_index_past_2_32_refused(self):
        _normals_matrix(1, 2 ** 32 - 1, 1, 2)
        with pytest.raises(DomainError):
            _normals_matrix(1, 2 ** 32, 1, 2)
        with pytest.raises(DomainError):
            _normals_matrix(1, 2 ** 32 - 1, 2, 4)


def _reference_mix64(x):
    """SplitMix64 finalizer, one full-size temporary per step."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _reference_normals(seed, stream_start, n_streams, n_draws):
    """The generator as a whole-matrix formula: ndtri of SplitMix64 uniforms."""
    streams = np.arange(stream_start, stream_start + n_streams, dtype=np.uint64)
    counters = np.arange(n_draws, dtype=np.uint64)
    idx = streams[:, None] * np.uint64(2 ** 32) + counters[None, :]
    words = _reference_mix64(
        np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * (idx + np.uint64(1)))
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return special.ndtri(u)


class TestGenerator:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    @pytest.mark.parametrize("shape", [
        (_CHUNK_WORDS // 1024 - 1, 1024),
        (_CHUNK_WORDS // 1024, 1024),
        (_CHUNK_WORDS // 1024 + 1, 1024),
        (3, 1000),
        (1, 200000),
        (0, 16),
        (16, 0),
    ], ids=["chunk-1", "chunk", "chunk+1", "ragged", "wide-row", "no-rows",
            "no-draws"])
    def test_matches_reference_formula(self, seed, shape):
        got = _normals_matrix(np.uint64(seed), 7, *shape)
        assert got.shape == shape
        assert np.array_equal(got, _reference_normals(seed, 7, *shape))

    def test_matches_reference_at_full_block(self):
        got = _normals_matrix(np.uint64(42), 4096, 4096, 1024)
        assert np.array_equal(got, _reference_normals(42, 4096, 4096, 1024))

    def test_matches_reference_at_range_ends(self):
        got = _normals_matrix(np.uint64(42), 2 ** 32 - 3, 3, 5)
        assert np.array_equal(got, _reference_normals(42, 2 ** 32 - 3, 3, 5))

    @pytest.mark.parametrize("seed, same", [
        (np.uint64(2 ** 64 - 1), -1), (7, 7 + 2 ** 64), (np.uint64(42), 42)],
        ids=["uint64-max", "past-2-64", "uint64"])
    def test_seed_is_taken_mod_2_64(self, seed, same):
        assert np.array_equal(_normals_matrix(seed, 3, 2, 5),
                              _normals_matrix(same, 3, 2, 5))

    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    def test_cholesky_salt_matches_reference(self, seed):
        got = _mix64(np.array([seed], dtype=np.uint64) ^ _CHOLESKY_SALT)[0]
        assert got == _reference_mix64(np.uint64(seed) ^ _CHOLESKY_SALT)[()]

    @pytest.mark.parametrize("stream, hexes", [
        (0, ["0x1.4bdde731d47a4p-1", "-0x1.fd59dd259ccc8p-1",
             "-0x1.2c8b8bd68b7a0p-1", "-0x1.9aad852db4893p-2",
             "-0x1.c625fa87782f8p+0", "0x1.1e38ccc3407a4p+0",
             "-0x1.8e205bdfc6a3cp-1", "0x1.b01117354176cp-1"]),
        (2 ** 32 - 1, ["0x1.758212a1eb33cp-1", "-0x1.127d352cadb3ep-2",
                       "0x1.9a0451506848ap+0", "-0x1.7f6db36ae846bp-1",
                       "-0x1.e4116ab7bffdep-1", "-0x1.9d16808d9422ap-1",
                       "0x1.255aa381a77b0p-2", "0x1.355457dbca282p-2"]),
    ], ids=["stream-0", "stream-last"])
    def test_pinned_draws(self, stream, hexes):
        got = _normals_matrix(42, stream, 1, 8)[0]
        assert [float(x).hex() for x in got] == hexes

    def test_no_full_size_temporaries(self):
        tracemalloc.start()
        try:
            out = _normals_matrix(np.uint64(42), 0, 4096, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2 ** 20


class TestSimulateVolterra:
    def test_starts_at_zero(self):
        x = simulate_volterra(RL25, TimeGrid.uniform(32, 1.0), 50, seed=1)
        assert x.shape == (50, 33)
        assert np.all(x[:, 0] == 0.0)

    def test_bit_exact_reproducibility(self):
        grid = TimeGrid.uniform(64, 1.0)
        x1 = simulate_volterra(RL25, grid, 200, seed=77)
        x2 = simulate_volterra(RL25, grid, 200, seed=77)
        assert np.array_equal(x1, x2)

    def test_block_offset_invariance(self):
        # path p reads stream p, so a batch from stream 200 is rows 200.. of the whole
        grid = TimeGrid.uniform(32, 1.0)
        whole = _normals_matrix(5, 0, 300, 32)
        tail = _normals_matrix(5, 200, 100, 32)
        assert np.array_equal(whole[200:], tail)
        x = simulate_volterra(RL25, grid, 300, seed=5)
        assert np.array_equal(x[200:], tail @ volterra_weights(RL25, grid).T)

    def test_brownian_is_cumsum(self):
        grid = TimeGrid.uniform(64, 1.0)
        x = simulate_volterra(BM, grid, 100, seed=3)
        dw = _normals_matrix(3, 0, 100, 64) * np.sqrt(np.diff(grid.times))
        assert np.allclose(x[:, 1:], np.cumsum(dw, axis=1), atol=1e-12)

    @pytest.mark.parametrize("k", KERNELS)
    def test_model_variance_equals_energy_function(self, k):
        grid = TimeGrid.uniform(64, 1.0)
        w = volterra_weights(k, grid)
        gamma = energy_function(k, grid).values
        model = np.sum(w * w, axis=1)
        assert np.allclose(model[1:], gamma[1:], rtol=1e-10)

    def test_rl_sample_variance(self):
        # var(X_T) = T^(2H) within 4 sqrt(2/paths) T^(2H)
        paths = 100000
        x = simulate_volterra(RL25, TimeGrid.uniform(64, 1.0), paths, seed=11)
        var = x[:, -1].var()
        tol = 4.0 * math.sqrt(2.0 / paths)
        assert abs(var - 1.0) <= tol

    def test_budget_refusal(self):
        required = 1024 * 1024 + 2 * 100000 * 1024
        with pytest.raises(DomainError, match=(
                f"holds {required} float64 elements at peak, over budget "
                f"{SIM_BUDGET};")):
            simulate_volterra(RL25, TimeGrid.uniform(1024, 1.0), 100000, seed=1)
        assert SIM_BUDGET == 2 ** 26

    def test_paths_validation(self):
        with pytest.raises(DomainError):
            simulate_volterra(RL25, TimeGrid.uniform(8, 1.0), 0, seed=1)

    @pytest.mark.parametrize("k", KERNELS)
    def test_gaussianity_anderson_darling(self, k):
        grid = TimeGrid.uniform(32, 1.0)
        x = simulate_volterra(k, grid, 10000, seed=13)
        gamma_t = energy_function(k, grid).values[-1]
        z = x[:, -1] / math.sqrt(gamma_t)
        res = stats.anderson(z, method="interpolate")
        assert res.pvalue > 0.01


def gram_by_loop(k, times):
    """The Gram matrix as simulate_cholesky built it one entry at a time."""
    n = times.size
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = covariance(k, k, times[i], times[j])
    return gram


class TestSimulateCholesky:
    @pytest.mark.parametrize("k", KERNELS + [
        ExpSumKernel(weights=(1.0, -2.0), rates=(1.0, 10.0), horizon=1.0)])
    def test_gram_matches_entrywise_loop(self, k, monkeypatch):
        factored = []
        cholesky = np.linalg.cholesky

        def spy(a):
            factored.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        grid = TimeGrid(np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 40))))
        simulate_cholesky(k, grid, 4, seed=5)
        gram = factored[0]
        np.testing.assert_allclose(gram, gram_by_loop(k, grid.times[1:]),
                                   rtol=1e-15, atol=0.0)
        assert np.array_equal(gram, gram.T)

    def test_brownian_increments_independent(self):
        grid = TimeGrid.uniform(16, 1.0)
        x = simulate_cholesky(BM, grid, 20000, seed=21)
        assert x.shape == (20000, 17) and np.all(x[:, 0] == 0.0)
        incs = np.diff(x, axis=1)
        cov = np.cov(incs[:, :4].T)
        dt = np.diff(grid.times)
        assert np.allclose(np.diag(cov), dt[:4], rtol=0.1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.01 * dt[0] + 0.002

    def test_marginal_variance_rl(self):
        grid = TimeGrid.uniform(16, 1.0)
        x = simulate_cholesky(RL25, grid, 20000, seed=23)
        var = x[:, -1].var()
        assert abs(var - 1.0) <= 4.0 * math.sqrt(2.0 / 20000)

    @pytest.mark.parametrize("n, paths", [(256, 4096), (64, 20000)])
    def test_peak_within_budget_charge(self, n, paths):
        # _check_budget charges 4 n^2 + 2 paths n float64 elements
        grid = TimeGrid.uniform(n, 1.0)
        tracemalloc.start()
        try:
            simulate_cholesky(RL25, grid, paths, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * n * n + 2 * paths * n) + 2 ** 20

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("k", [
        RL25, BM,
        ExpSumKernel(weights=(1.0, 0.5, 0.25, 0.125), rates=(1.0, 2.0, 4.0, 8.0),
                     horizon=1.0),
        brownian_table(np.linspace(0.0, 1.0, 33)),
        ragged_table(),
    ], ids=["rl", "brownian", "expsum-4", "brownian-table-32", "ragged-table"])
    def test_gram_phase_within_budget_charge(self, k, n):
        # one path: the Gram matrix, its covariance temporaries and the
        # factor set the peak, which must stay within the 4 n^2 charged; the
        # 32-cell table read 25 n^2 while its covariances took quadrature
        grid = TimeGrid.uniform(n, 1.0)
        tracemalloc.start()
        try:
            simulate_cholesky(k, grid, 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (4 * n * n + 2 * n)

    def test_two_sample_ks_vs_volterra(self):
        # both samplers produce N(0, Gamma(T)) at the endpoint
        grid = TimeGrid.uniform(16, 1.0)
        a = simulate_volterra(RL25, grid, 10000, seed=31)[:, -1]
        b = simulate_cholesky(RL25, grid, 10000, seed=31)[:, -1]
        ks = stats.ks_2samp(a, b)
        critical = 1.628 * math.sqrt(2.0 / 10000)  # 1% two-sample level
        assert ks.statistic < critical

