"""Energy functions, cross-brackets, Hurst recovery."""

import math

import numpy as np
import pytest

from volterra_ito.bracket import (
    EnergyFunction,
    cross_bracket,
    energy_function,
    estimate_hurst,
)
from volterra_ito.errors import DomainError
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TableKernel,
    TimeGrid,
)
from volterra_ito.paths import simulate_volterra

BM = BrownianKernel(horizon=1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
ES = ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0)


def cumulative_cell_energy(k, grid):
    """Reference: Gamma(t_i) as the row-by-row sum of exact cell masses."""
    times = grid.times
    vals = np.zeros(times.size)
    for i in range(1, times.size):
        vals[i] = np.sum(k.cell_l2_rows(times[i], times[:i], times[1:i + 1]))
    return vals


class TestEnergyFunction:
    @pytest.mark.parametrize("k", [
        BM,
        RiemannLiouvilleKernel(hurst=0.1, horizon=1.0),
        RL25,
        RiemannLiouvilleKernel(hurst=0.75, horizon=1.0),
        ExpSumKernel(weights=(1.0, -2.0), rates=(1.0, 10.0), horizon=1.0),
    ])
    def test_matches_cell_cumsums(self, k):
        grid = TimeGrid(np.linspace(0.0, 1.0, 257) ** 2)
        ef = energy_function(k, grid)
        want = cumulative_cell_energy(k, grid)
        assert np.allclose(ef.values, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.75])
    def test_rl_power_law(self, hurst):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        grid = TimeGrid.uniform(128, 1.0)
        ef = energy_function(k, grid)
        want = grid.times ** (2 * hurst)
        assert np.allclose(ef.values, want, rtol=1e-12)
        assert ef.monotone

    def test_brownian_linear(self):
        ef = energy_function(BM, TimeGrid.uniform(16, 1.0))
        assert np.allclose(ef.values, np.linspace(0, 1, 17), rtol=1e-14)

    def test_expsum_closed_form(self):
        grid = TimeGrid.uniform(64, 1.0)
        ef = energy_function(ES, grid)
        want = (1.0 - np.exp(-2.0 * grid.times)) / 2.0
        assert np.allclose(ef.values, want, rtol=1e-12)

    def test_starts_at_zero(self):
        ef = energy_function(RL25, TimeGrid.uniform(8, 1.0))
        assert ef.values[0] == 0.0

    def test_gamma_depends_only_on_l2_mass(self):
        # two tables differing far above the causal triangle (zero L2 mass
        # in every integral) produce identical energy functions
        n = 16
        grid = TimeGrid.uniform(n, 1.0)
        times = grid.times
        vals = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            for j in range(n + 1):
                if times[j] < times[i]:
                    vals[i, j] = RL25.lag_eval(times[i], times[i] - times[j],
                                               times[j])
        t1 = TableKernel(grid=grid, values=vals)
        vals2 = vals.copy()
        for i in range(n + 1):
            vals2[i, i + 2:] += 7.5
        t2 = TableKernel(grid=grid, values=vals2)
        e1 = energy_function(t1, grid)
        e2 = energy_function(t2, grid)
        assert np.max(np.abs(e1.values - e2.values)) <= 1e-12

    def test_cauchy_schwarz_stability(self):
        # pointwise: |Gamma_1(t) - Gamma_2(t)| <= d(t) (sqrt G1 + sqrt G2)
        # with d(t)^2 = G1 + G2 - 2 cross(t)
        pairs = [(BM, ES), (RL25, BM), (RL25, ES)]
        grid = TimeGrid.uniform(32, 1.0)
        for k1, k2 in pairs:
            g1 = energy_function(k1, grid).values
            g2 = energy_function(k2, grid).values
            cross = cross_bracket(k1, k2, grid).values
            d = np.sqrt(np.maximum(g1 + g2 - 2 * cross, 0.0))
            bound = d * (np.sqrt(g1) + np.sqrt(g2))
            assert np.all(np.abs(g1 - g2) <= bound + 1e-9)


class TestCrossBracket:
    def test_equal_kernels_reduce_to_energy(self):
        grid = TimeGrid.uniform(32, 1.0)
        cb = cross_bracket(RL25, RL25, grid)
        ef = energy_function(RL25, grid)
        assert np.allclose(cb.values, ef.values, rtol=1e-10)

    def test_brownian_pair(self):
        grid = TimeGrid.uniform(16, 1.0)
        cb = cross_bracket(BM, BM, grid)
        assert np.allclose(cb.values, grid.times, rtol=1e-14)

    def test_rl_brownian_value(self):
        grid = TimeGrid.uniform(8, 1.0)
        cb = cross_bracket(RL25, BM, grid)
        want = math.sqrt(0.5) * 4.0 / 3.0
        assert cb.values[-1] == pytest.approx(want, rel=1e-10)

    def test_monte_carlo_consistency(self):
        # E[X1_t X2_t] from simulation matches the quadrature cross-bracket
        grid = TimeGrid.uniform(128, 1.0)
        x1 = simulate_volterra(RL25, grid, 20000, seed=3)
        x2 = simulate_volterra(BM, grid, 20000, seed=3)
        prod = x1[:, -1] * x2[:, -1]
        se = prod.std() / math.sqrt(prod.size)
        want = cross_bracket(RL25, BM, grid).values[-1]
        assert abs(prod.mean() - want) <= 4 * se + 5e-3


class TestEstimateHurst:
    @pytest.mark.parametrize("hurst", [0.25, 0.5])
    def test_closed_form_recovery(self, hurst):
        grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 200)]))
        ef = EnergyFunction(grid=grid, values=grid.times ** (2 * hurst))
        h_hat, r2 = estimate_hurst(ef, (1e-3, 1.0))
        assert h_hat == pytest.approx(hurst, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_fitted_markovian_bracket(self):
        from volterra_ito.approx import fit_expsum

        fitted = fit_expsum(RL25, 8, 1e-5)
        grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 256)]))
        h_hat, _ = estimate_hurst(energy_function(fitted, grid), (1e-3, 1e-1))
        assert abs(h_hat - 0.25) <= 0.02

    def test_too_few_points(self):
        grid = TimeGrid.uniform(4, 1.0)
        ef = EnergyFunction(grid=grid, values=grid.times.copy())
        with pytest.raises(DomainError):
            estimate_hurst(ef, (0.9, 1.0))

    def test_nonpositive_rejected(self):
        grid = TimeGrid.uniform(8, 1.0)
        vals = grid.times.copy()
        vals[3] = 0.0
        ef = EnergyFunction(grid=grid, values=vals)
        assert not ef.monotone  # computed from the values, not passed in
        with pytest.raises(DomainError):
            estimate_hurst(ef, (0.1, 1.0))
