"""Path simulation: reproducibility, exact variances, distributional checks."""

import gzip
import math

import numpy as np
import pytest
from scipy import stats

from volterra_ito.bracket import energy_function
from volterra_ito.errors import DomainError, ResourceError
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TimeGrid,
)
from volterra_ito.paths import (
    RngStream,
    dump_paths_csv,
    simulate_cholesky,
    simulate_volterra,
    volterra_weights,
)

BM = BrownianKernel(horizon=1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
ES = ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0)
KERNELS = [BM, RL25, RiemannLiouvilleKernel(hurst=0.75, horizon=1.0), ES]


class TestRngStream:
    def test_pure_function_of_state(self):
        a = RngStream(seed=42, stream_index=3).normals(16)
        b = RngStream(seed=42, stream_index=3).normals(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(seed=42, stream_index=0).normals(16)
        b = RngStream(seed=42, stream_index=1).normals(16)
        assert not np.array_equal(a, b)

    def test_counter_continuation(self):
        s = RngStream(seed=9, stream_index=5)
        first = s.normals(8)
        second = s.normals(8)
        whole = RngStream(seed=9, stream_index=5).normals(16)
        assert np.array_equal(np.concatenate([first, second]), whole)

    def test_moments(self):
        z = RngStream(seed=1, stream_index=0).normals(200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02
        assert abs(stats.skew(z)) < 0.03

    def test_counter_range_past_2_32_refused(self):
        RngStream(seed=1, stream_index=0, counter=2 ** 32 - 2).normals(2)
        with pytest.raises(DomainError):
            RngStream(seed=1, stream_index=0, counter=2 ** 32).normals(2)
        with pytest.raises(DomainError):
            RngStream(seed=1, stream_index=0, counter=2 ** 32 - 1).normals(2)

    def test_stream_index_past_2_32_refused(self):
        RngStream(seed=1, stream_index=2 ** 32 - 1).normals(2)
        with pytest.raises(DomainError):
            RngStream(seed=1, stream_index=2 ** 32).normals(2)
        with pytest.raises(DomainError):
            simulate_volterra(BrownianKernel(), TimeGrid.uniform(4, 1.0), 2,
                              seed=1, stream_offset=2 ** 32 - 1)


class TestSimulateVolterra:
    def test_starts_at_zero(self):
        b = simulate_volterra(RL25, TimeGrid.uniform(32, 1.0), 50, seed=1)
        assert np.all(b.X[:, 0] == 0.0)

    def test_bit_exact_reproducibility(self):
        grid = TimeGrid.uniform(64, 1.0)
        b1 = simulate_volterra(RL25, grid, 200, seed=77)
        b2 = simulate_volterra(RL25, grid, 200, seed=77)
        assert np.array_equal(b1.X, b2.X)
        assert np.array_equal(b1.dW, b2.dW)

    def test_block_offset_invariance(self):
        grid = TimeGrid.uniform(32, 1.0)
        whole = simulate_volterra(RL25, grid, 300, seed=5)
        tail = simulate_volterra(RL25, grid, 100, seed=5, stream_offset=200)
        assert np.array_equal(whole.X[200:], tail.X)

    def test_brownian_is_cumsum(self):
        grid = TimeGrid.uniform(64, 1.0)
        b = simulate_volterra(BM, grid, 100, seed=3)
        assert np.allclose(b.X[:, 1:], np.cumsum(b.dW, axis=1), atol=1e-12)

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
        b = simulate_volterra(RL25, TimeGrid.uniform(64, 1.0), paths, seed=11)
        var = b.X[:, -1].var()
        tol = 4.0 * math.sqrt(2.0 / paths)
        assert abs(var - 1.0) <= tol

    def test_budget_refusal(self):
        with pytest.raises(ResourceError) as err:
            simulate_volterra(RL25, TimeGrid.uniform(1024, 1.0), 100000, seed=1)
        assert err.value.required == 100000 * 1024 * 1024

    def test_paths_validation(self):
        with pytest.raises(DomainError):
            simulate_volterra(RL25, TimeGrid.uniform(8, 1.0), 0, seed=1)

    @pytest.mark.parametrize("k", KERNELS)
    def test_gaussianity_anderson_darling(self, k):
        grid = TimeGrid.uniform(32, 1.0)
        b = simulate_volterra(k, grid, 10000, seed=13)
        gamma_t = energy_function(k, grid).values[-1]
        z = b.X[:, -1] / math.sqrt(gamma_t)
        res = stats.anderson(z, method="interpolate")
        assert res.pvalue > 0.01


class TestSimulateCholesky:
    def test_brownian_increments_independent(self):
        grid = TimeGrid.uniform(16, 1.0)
        b = simulate_cholesky(BM, grid, 20000, seed=21)
        incs = np.diff(b.X, axis=1)
        cov = np.cov(incs[:, :4].T)
        assert np.allclose(np.diag(cov), grid.dt[:4], rtol=0.1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.01 * grid.dt[0] + 0.002

    def test_marginal_variance_rl(self):
        grid = TimeGrid.uniform(16, 1.0)
        b = simulate_cholesky(RL25, grid, 20000, seed=23)
        var = b.X[:, -1].var()
        assert abs(var - 1.0) <= 4.0 * math.sqrt(2.0 / 20000)

    def test_no_driver_decomposition(self):
        b = simulate_cholesky(RL25, TimeGrid.uniform(8, 1.0), 10, seed=1)
        assert b.dW.shape == (10, 0)
        with pytest.raises(DomainError):
            b.z()

    def test_two_sample_ks_vs_volterra(self):
        # both samplers produce N(0, Gamma(T)) at the endpoint
        grid = TimeGrid.uniform(16, 1.0)
        a = simulate_volterra(RL25, grid, 10000, seed=31).X[:, -1]
        b = simulate_cholesky(RL25, grid, 10000, seed=31).X[:, -1]
        ks = stats.ks_2samp(a, b)
        critical = 1.628 * math.sqrt(2.0 / 10000)  # 1% two-sample level
        assert ks.statistic < critical


class TestDump:
    def test_csv_round_trip(self, tmp_path):
        b = simulate_volterra(BM, TimeGrid.uniform(4, 1.0), 3, seed=2)
        out = tmp_path / "paths.csv"
        dump_paths_csv(b, str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,t,X"
        assert len(lines) == 1 + 3 * 5
        row = lines[1].split(",")
        assert row[0] == "0" and float(row[1]) == 0.0 and float(row[2]) == 0.0

    def test_gzip(self, tmp_path):
        b = simulate_volterra(BM, TimeGrid.uniform(4, 1.0), 2, seed=2)
        out = tmp_path / "paths.csv.gz"
        dump_paths_csv(b, str(out), compress=True)
        with gzip.open(out, "rt") as fh:
            assert fh.readline().strip() == "path,t,X"
