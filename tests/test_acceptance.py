"""Acceptance criteria: every identity at its contracted tolerance.

Each test prints one PASS line (visible with pytest -s) and asserts the
stated tolerance; the suite covers the exact operator algebra, the bracket
values, the mean and pathwise identities, the uniqueness of the correction
measure, the multivariate formula, approximation stability and the Hurst
scaling recovery.
"""

import math
import time

import numpy as np
import pytest

from volterra_ito.approx import convergence_suite, fit_expsum
from volterra_ito.bracket import energy_function, estimate_hurst
from volterra_ito.itoverify import (
    TestFunction,
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
from volterra_ito.sandbox import (
    discretized_bm_square,
    factorization_defect,
    sandbox_suite,
    wick_expectation,
)

SEED = 42


def report(number, name, elapsed, extra=""):
    line = f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.1f}s)"
    if extra:
        line += f" {extra}"
    print(line)


def test_criterion_1_exact_sandbox_suite():
    t0 = time.time()
    rep = sandbox_suite(cases=200, seed=20240801)
    elapsed = time.time() - t0
    for key in (
        "adjointness_max",
        "product_rule_max",
        "ortho_identity_max",
        "projection_idempotence_max",
        "projection_self_adjoint_max",
        "isometry_exact_max",
    ):
        assert rep[key] <= 1e-12, (key, rep[key])
    assert elapsed < 10.0
    report(1, "exact sandbox suite", elapsed,
           f"max residual {max(rep[k] for k in rep if k.endswith('_max') and k != 'isometry_hs_gap_max'):.2e}")


def test_criterion_2_factorization_continuum_limit():
    t0 = time.time()
    rels = []
    for n in (4, 16, 64, 256):
        d = factorization_defect(discretized_bm_square(n))
        l2 = math.sqrt(wick_expectation(d * d))
        want = math.sqrt(2.0 / n)
        rel = abs(l2 - want) / want
        rels.append(rel)
        assert rel <= 1e-12, (n, rel)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, "factorization defect sqrt(2/n)", elapsed,
           f"max rel err {max(rels):.2e}")


def test_criterion_3_bracket_power_law():
    t0 = time.time()
    grid = TimeGrid.uniform(1024, 1.0)
    worst = 0.0
    for hurst in (0.1, 0.25, 0.5, 0.75):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        ef = energy_function(k, grid)
        want = grid.times[1:] ** (2 * hurst)
        rel = np.max(np.abs(ef.values[1:] - want) / want)
        worst = max(worst, rel)
        assert rel <= 1e-10, (hurst, rel)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(3, "Gamma_RL(t) = t^(2H)", elapsed, f"max rel err {worst:.2e}")


def test_criterion_4_mean_identity_quadrature():
    t0 = time.time()
    phi = TestFunction.cosine()
    worst = 0.0
    for hurst in (0.25, 0.5, 0.75):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        grid = equal_energy_grid(k, 1024)
        rep = verify_mean_identity(k, phi, grid, 0, SEED, 1.0)
        lhs_closed = math.exp(-0.5)  # exp(-t^(2H)/2) at t = 1
        assert abs(rep.detail["lhs_quadrature"] - lhs_closed) <= 1e-10
        residual = abs(rep.estimate - rep.reference)
        worst = max(worst, residual)
        assert residual <= 1e-6, (hurst, residual)
        assert rep.passed
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(4, "mean identity, phi = cos", elapsed, f"max residual {worst:.2e}")


def test_criterion_5_worked_example_rough_square():
    t0 = time.time()
    k = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
    grids = [TimeGrid.uniform(2 ** j, 1.0) for j in (6, 8, 10)]
    rep = verify_pathwise_formula(
        k, TestFunction.square(), grids, 100000, SEED, 1.0
    )
    elapsed = time.time() - t0
    ladder = rep.detail["ladder"]
    for a, b in zip(ladder, ladder[1:]):
        assert b["estimate"] <= a["estimate"] + (a["se"] + b["se"])
    final = ladder[-1]
    assert abs(final["estimate"] - rep.reference) <= 4.0 * final["se"] + rep.bias_bound
    assert rep.passed
    assert elapsed < 300.0
    report(5, "worked example (X_t)^2 - t^(1/2)", elapsed,
           f"E[res^2] ladder {[round(r['estimate'], 5) for r in ladder]}")


def test_criterion_6_classical_brownian_regression():
    t0 = time.time()
    n = 256
    rep = verify_pathwise_formula(
        BrownianKernel(horizon=1.0), TestFunction.square(),
        TimeGrid.uniform(n, 1.0), 100000, SEED, 1.0,
    )
    elapsed = time.time() - t0
    exact = 2.0 / n  # 2 T^2 / n from the Wick oracle
    rel = abs(rep.estimate - exact) / exact
    assert rel <= 0.10, rel
    assert elapsed < 120.0
    report(6, "Brownian x^2 residual variance 2T^2/n", elapsed,
           f"rel err {rel:.3%}")


def test_criterion_7_uniqueness_detects_perturbation():
    t0 = time.time()
    phi = TestFunction.mollified_square()
    kernels = [
        BrownianKernel(horizon=1.0),
        RiemannLiouvilleKernel(hurst=0.25, horizon=1.0),
        RiemannLiouvilleKernel(hurst=0.75, horizon=1.0),
        ExpSumKernel(weights=(1.0,), rates=(1.0,), horizon=1.0),
    ]
    worst = math.inf
    for k in kernels:
        grid = equal_energy_grid(k, 1024)
        rep = verify_uniqueness_perturbation(k, phi, 0.01, grid, 1.0)
        ratio = rep.detail["detection_ratio"]
        worst = min(worst, ratio)
        assert ratio >= 5.0, (k.kind, ratio)
        assert rep.passed
        # exact: no standard error, and the tolerance is the bias bound alone
        assert (rep.se, rep.paths, rep.seed, rep.z) == (0.0, 0, 0, 4.0)
        assert rep.detail["combined_tolerance"] == rep.bias_bound
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, "correction-measure uniqueness, eps = 0.01", elapsed,
           f"min detection ratio {worst:.1e}")


def test_criterion_8_multivariate_cross_bracket():
    t0 = time.time()
    rep = verify_multivariate(
        RiemannLiouvilleKernel(hurst=0.25, horizon=1.0),
        BrownianKernel(horizon=1.0),
        TimeGrid.uniform(1024, 1.0), 100000, SEED, 1.0,
    )
    elapsed = time.time() - t0
    assert rep.reference == pytest.approx(math.sqrt(0.5) * 4.0 / 3.0, rel=1e-9)
    assert abs(rep.estimate - rep.reference) <= 4.0 * rep.se + rep.bias_bound
    assert rep.passed
    assert elapsed < 120.0
    report(8, "multivariate E[X1 X2] = cross-bracket", elapsed,
           f"estimate {rep.estimate:.6f} vs {rep.reference:.6f} (4se {4 * rep.se:.1e})")


def test_criterion_9_approximation_stability():
    t0 = time.time()
    rep = convergence_suite(
        RiemannLiouvilleKernel(hurst=0.25, horizon=1.0),
        [2, 4, 8, 16], TimeGrid.uniform(256, 1.0), t_min=1e-4,
    )
    elapsed = time.time() - t0
    assert rep.l2_strictly_decreasing, rep.l2_errors
    assert rep.bracket_nonincreasing, rep.bracket_sup_errors
    assert rep.cauchy_schwarz_ok
    assert elapsed < 60.0
    report(9, "exp-sum approximation stability", elapsed,
           f"l2 {[round(x, 4) for x in rep.l2_errors]}")


def test_criterion_10_hurst_recovery():
    t0 = time.time()
    # closed-form bracket: recovery to 1e-6
    for hurst in (0.1, 0.25, 0.5, 0.75):
        k = RiemannLiouvilleKernel(hurst=hurst, horizon=1.0)
        grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 256)]))
        h_hat, _ = estimate_hurst(energy_function(k, grid), (1e-3, 1.0))
        assert abs(h_hat - hurst) <= 1e-6, (hurst, h_hat)
    # fitted Markovian bracket: recovery to 0.02 over [1e-3, 1e-1]
    target = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
    fitted = fit_expsum(target, 16, 1e-5)
    grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 256)]))
    h_fit, _ = estimate_hurst(energy_function(fitted, grid), (1e-3, 1e-1))
    assert abs(h_fit - 0.25) <= 0.02, h_fit
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(10, "Hurst exponent recovery", elapsed,
           f"closed-form exact, fitted H {h_fit:.4f}")
