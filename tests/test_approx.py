"""Exponential-sum kernel fitting and convergence quantification."""

import time
from dataclasses import MISSING, fields

import numpy as np
import pytest

from volterra_ito.approx import ApproxReport, convergence_suite, fit_expsum
from volterra_ito.bracket import energy_function, estimate_hurst
from volterra_ito.errors import DomainError, NumericalError
from volterra_ito.kernels import (
    BrownianKernel,
    ExpSumKernel,
    RiemannLiouvilleKernel,
    TimeGrid,
    kernel_l2mu_distance,
)

RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)


class TestFitExpsum:
    def test_weights_nonnegative_and_kernel_valid(self):
        fit = fit_expsum(RL25, 8, 1e-3)
        assert isinstance(fit, ExpSumKernel)
        assert all(w >= 0.0 for w in fit.weights)
        assert all(r > 0.0 for r in fit.rates)
        assert len(fit.weights) == 8

    def test_rates_span_geometric_grid(self):
        fit = fit_expsum(RL25, 4, 1e-2)
        assert fit.rates[0] == pytest.approx(1.0)
        assert fit.rates[-1] == pytest.approx(100.0)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            fit_expsum(RL25, 0, 1e-3)

    def test_more_terms_than_lag_points_rejected(self):
        # 2,000,000 terms asked for a 2000 x 2,000,000 design matrix (32 GB)
        with pytest.raises(DomainError, match=r"n_terms must lie in \[1, 2000\]"):
            fit_expsum(RL25, 2001, 1e-3)

    @pytest.mark.parametrize("n, t_min, shapes, sign", [
        (2000, 1e-5, [(2000, 32)], ">="),  # the window alone refuses
        (100, 0.5, [(2000, 32)], ">="),
        (40, 1e-5, [(2000, 32), (2000, 40)], None),  # window passes: full SVD
        (32, 0.5, [(2000, 32)], "~"),  # the design is its own window
        (32, 1e-5, [(2000, 32)], None),
    ], ids=["2000-terms", "100-terms", "40-accepted", "32-refused", "32-accepted"])
    def test_condition_checked_on_the_first_columns_first(self, n, t_min, shapes,
                                                          sign, monkeypatch):
        # singular values interlace: the first 32 columns' condition number
        # bounds the design's from below, so past the bound no full SVD runs
        seen, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: seen.append(a.shape) or cond(a))
        if sign is None:
            assert len(fit_expsum(RL25, n, t_min).weights) == n
        else:
            with pytest.raises(NumericalError, match=f"cond {sign} "):
                fit_expsum(RL25, n, t_min)
        assert seen == shapes

    def test_hopeless_fit_refused_at_once(self):
        # the full 2000 x 2000 SVD took about 1.5 s. The best of ten: after an
        # idle spell the first few SVDs of a process took 0.2 s each while
        # OpenBLAS woke its threads, then 2-4 ms
        times = []
        for _ in range(10):
            start = time.perf_counter()
            with pytest.raises(NumericalError, match="cond >= "):
                fit_expsum(RL25, 2000, 1e-5)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1, times

    def test_non_rl_target_rejected(self):
        with pytest.raises(DomainError):
            fit_expsum(BrownianKernel(horizon=1.0), 4, 1e-3)

    def test_increasing_target_rejected_before_the_fit(self):
        # at H = 1/4 these arguments fail on the design's condition number
        rl75 = RiemannLiouvilleKernel(hurst=0.75, horizon=1.0)
        with pytest.raises(DomainError, match="completely monotone"):
            fit_expsum(rl75, 200, 1e-12)

    def test_t_min_range(self):
        with pytest.raises(DomainError):
            fit_expsum(RL25, 4, 0.0)
        with pytest.raises(DomainError):
            fit_expsum(RL25, 4, 2.0)

    def test_constant_kernel_single_term(self):
        # RL(0.5) is the constant kernel; one slow exponential fits it with
        # weight near one (exactly one only in the lambda -> 0 limit)
        k = RiemannLiouvilleKernel(hurst=0.5, horizon=1.0)
        fit = fit_expsum(k, 1, 1e-3)
        assert 0.5 < fit.weights[0] < 2.0
        rel = kernel_l2mu_distance(k, fit) / kernel_l2mu_distance(
            k, ExpSumKernel(weights=(0.0,), rates=(1.0,), horizon=1.0)
        )
        assert rel < 0.35

    def test_l2_error_strictly_decreasing_spec_tmin(self):
        dists = [
            kernel_l2mu_distance(RL25, fit_expsum(RL25, n, 1e-3))
            for n in (2, 4, 8, 16)
        ]
        assert all(b < a for a, b in zip(dists, dists[1:]))


@pytest.fixture(scope="module")
def report():
    return convergence_suite(
        RL25, [2, 4, 8, 16], TimeGrid.uniform(256, 1.0), t_min=1e-4
    )


class TestConvergenceSuite:

    def test_l2_strictly_decreasing(self, report):
        assert report.l2_strictly_decreasing

    def test_bracket_nonincreasing(self, report):
        assert report.bracket_nonincreasing

    def test_cauchy_schwarz_pointwise(self, report):
        assert report.cauchy_schwarz_ok

    def test_bracket_tracks_kernel_in_convergent_regime(self, report):
        # ratio surrogate, checked from n=4 on: the n=2 fit is pre-asymptotic
        # (its bracket error is accidentally small) so the ratio bound only
        # binds once both errors are in the convergent regime
        l2 = report.l2_errors
        br = report.bracket_sup_errors
        for i in (1, 2):
            assert br[i + 1] / br[i] <= l2[i + 1] / l2[i] + 0.1

    def test_fitted_kernel_is_fixed_point_of_the_metric(self):
        # exp-sum targets are rejected by the fitter (RL only), so the
        # fixed-point property is checked on the metric: a fitted kernel is
        # at zero distance from itself
        fit = fit_expsum(RL25, 4, 1e-3)
        assert kernel_l2mu_distance(fit, fit) == 0.0

    def test_record_has_no_defaults(self):
        # every field is set once, by convergence_suite
        assert all(f.default is MISSING and f.default_factory is MISSING
                   for f in fields(ApproxReport))

    @pytest.mark.parametrize("l2, sup, cs, passed", [
        ([0.3, 0.2, 0.1], [0.2, 0.2 * (1 + 1e-13), 0.1], True, True),
        ([0.3, 0.3, 0.1], [0.2, 0.1, 0.05], True, False),
        ([0.3, 0.2, 0.1], [0.2, 0.2 * (1 + 1e-11), 0.1], True, False),
        ([0.3, 0.2, 0.1], [0.2, 0.1, 0.05], False, False),
        ([0.3], [0.2], True, True),
    ], ids=["pass", "l2-flat", "bracket-rises", "cauchy-schwarz", "one-n"])
    def test_verdict_reads_the_errors(self, l2, sup, cs, passed):
        rep = ApproxReport("rl", [2, 4, 8][:len(l2)], l2, sup, [0.25] * len(l2),
                           [], cs)
        assert rep.passed is passed
        d = rep.to_dict()
        assert d["l2_strictly_decreasing"] == rep.l2_strictly_decreasing
        assert d["bracket_nonincreasing"] == rep.bracket_nonincreasing
        assert passed == (cs and d["l2_strictly_decreasing"]
                          and d["bracket_nonincreasing"])

    def test_report_dict_round_trip(self, report):
        d = report.to_dict()
        assert d["n_terms"] == [2, 4, 8, 16]
        assert len(d["fitted"]) == 4
        assert all(len(f["weights"]) == n for f, n in zip(d["fitted"], d["n_terms"]))


class TestHurstRecovery:
    def test_fitted_bracket_recovers_hurst(self):
        # resolution floor well below the window: scaling recovered to 0.02
        fit = fit_expsum(RL25, 16, 1e-5)
        grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 256)]))
        ef = energy_function(fit, grid)
        h_hat, r2 = estimate_hurst(ef, (1e-3, 1e-1))
        assert abs(h_hat - 0.25) <= 0.02
        assert r2 > 0.999

    def test_floor_level_window_is_biased(self):
        # with the window at the resolution floor the scaling estimate is
        # systematically off: documents why the floor must sit below the window
        fit = fit_expsum(RL25, 16, 1e-3)
        grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 256)]))
        ef = energy_function(fit, grid)
        h_hat, _ = estimate_hurst(ef, (1e-3, 1e-2))
        assert abs(h_hat - 0.25) > 0.02
