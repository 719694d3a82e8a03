"""Markovian (exponential-sum) approximation of power-law Volterra kernels.

Rates are fixed on a geometric grid spanning [1/T, 1/t_min] and weights come
from nonnegative least squares against the target kernel in the L2(mu)
geometry of the causal triangle, restricted to lags >= t_min: finitely many
exponentials cannot match the power-law singularity at lag zero, and t_min
makes that resolution floor explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bracket import energy_function, estimate_hurst
from .errors import DomainError, NumericalError
from .kernels import (
    ExpSumKernel,
    Kernel,
    TimeGrid,
    covariance,
    kernel_l2mu_distance,
)

__all__ = ["ApproxReport", "fit_expsum", "convergence_suite"]

_FIT_GRID_POINTS = 2000
_MAX_CONDITION = 1e14
_COND_WINDOW = 32  # columns whose condition number is checked first
_CS_SLACK = 1e-9


@dataclass
class ApproxReport:
    """Convergence record of an exponential-sum fit per term count, and its verdict."""

    target_id: str
    n_terms: list
    l2_errors: list
    bracket_sup_errors: list
    hurst_estimates: list
    fitted: list  # per-n {"weights","rates"}
    cauchy_schwarz_ok: bool

    @property
    def l2_strictly_decreasing(self) -> bool:
        errs = self.l2_errors
        return all(b < a for a, b in zip(errs, errs[1:]))

    @property
    def bracket_nonincreasing(self) -> bool:
        errs = self.bracket_sup_errors
        return all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    @property
    def passed(self) -> bool:
        return (self.cauchy_schwarz_ok and self.l2_strictly_decreasing
                and self.bracket_nonincreasing)

    def to_dict(self) -> dict:
        return {
            "target": self.target_id,
            "n_terms": list(self.n_terms),
            "l2_errors": [float(x) for x in self.l2_errors],
            "bracket_sup_errors": [float(x) for x in self.bracket_sup_errors],
            "hurst_estimates": [float(x) for x in self.hurst_estimates],
            "fitted": self.fitted,
            "cauchy_schwarz_ok": self.cauchy_schwarz_ok,
            "l2_strictly_decreasing": self.l2_strictly_decreasing,
            "bracket_nonincreasing": self.bracket_nonincreasing,
        }


def _check_t_min(t_min, T):
    if not 0.0 < t_min < T:
        raise DomainError("field 't_min': must lie strictly inside (0, T)")


def fit_expsum(target: Kernel, n_terms: int, t_min: float) -> ExpSumKernel:
    """Fit sum_j c_j exp(-lambda_j (t-s)) to a Riemann-Liouville kernel.

    Parameters
    ----------
    target : RiemannLiouvilleKernel with H <= 1/2
    n_terms : int
        Number of exponential terms, 1 to 2000 (the fit's lag points).
    t_min : float
        Resolution floor: the fit only controls lags in [t_min, T].

    Returns
    -------
    ExpSumKernel with nonnegative weights on the geometric rate grid.
    """
    if target.kind != "rl":  # Brownian motion, RL at H = 1/2, stays refused
        raise DomainError("exp-sum fitting targets Riemann-Liouville kernels only")
    if target.hurst > 0.5:
        raise DomainError(
            f"field 'hurst': exp-sum fitting needs H <= 1/2, got {target.hurst}: a "
            "nonnegative exponential sum is completely monotone (Bernstein), so it "
            "cannot approach the increasing kernel w^(H-1/2)")
    if not 1 <= n_terms <= _FIT_GRID_POINTS:  # refused before any allocation
        raise DomainError(
            f"n_terms must lie in [1, {_FIT_GRID_POINTS}], the fit's lag points; "
            f"got {n_terms}")
    T = target.horizon
    _check_t_min(t_min, T)

    rates = np.geomspace(1.0 / T, 1.0 / t_min, n_terms)

    # L2((t_min,T), (T-w) dw) discretized on a log-lag grid (trapezoid in log w)
    x = np.linspace(math.log(t_min), math.log(T), _FIT_GRID_POINTS)
    w = np.exp(x)
    qx = np.full(x.size, x[1] - x[0])
    qx[0] *= 0.5
    qx[-1] *= 0.5
    density = np.sqrt(np.maximum(T - w, 0.0) * w * qx)

    def columns(r):
        return np.exp(-np.multiply.outer(w, r)) * density[:, None]

    # Singular values interlace, so the first _COND_WINDOW columns are no
    # worse conditioned than the whole design: past the bound they refuse
    # the fit without the full SVD, which takes seconds at 2000 terms.
    design = columns(rates[:_COND_WINDOW])
    cond = np.linalg.cond(design)
    partial = n_terms > _COND_WINDOW
    if partial and cond <= _MAX_CONDITION:
        design = columns(rates)
        cond, partial = np.linalg.cond(design), False
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise NumericalError(
            f"exp-sum design matrix is ill-conditioned (cond "
            f"{'>=' if partial else '~'} {cond:.3e}); reduce n_terms or raise t_min",
            estimate=cond,
        )
    targ = target.lag_eval(T, w, None) * density
    # imported here, not at the top: only the fits use scipy.optimize, and the
    # packages it loads would add to the set-up of every CLI call
    from scipy import optimize

    coef, _res = optimize.nnls(design, targ)
    return ExpSumKernel(weights=tuple(coef), rates=tuple(rates), horizon=T)


def _pointwise_cs_ok(target, fitted, grid, gamma_target, gamma_fit):
    """|Gamma_n - Gamma| <= d_n(t) (||K_n||_t + ||K||_t) at every grid point
    past 0, given Gamma and Gamma_n on the grid."""
    g_t, g_f = gamma_target[1:], gamma_fit[1:]
    cross = covariance(target, fitted, grid.times[1:], grid.times[1:])
    dist2 = np.maximum(g_t + g_f - 2.0 * cross, 0.0)
    bound = np.sqrt(dist2) * (np.sqrt(g_t) + np.sqrt(g_f))
    return not np.any(np.abs(g_f - g_t) > bound + _CS_SLACK)


def convergence_suite(target: Kernel, n_list, grid: TimeGrid,
                      t_min: float) -> ApproxReport:
    """Fit exp-sums for each n and quantify kernel and bracket errors.

    Per n: the L2(mu) kernel distance, the sup over the grid of the bracket
    error (with the pointwise Cauchy-Schwarz bound asserted), and the Hurst
    exponent of the fitted bracket over (t_min, 10 t_min). The term
    counts must be strictly increasing: the suite judges its errors as
    decreasing in n.
    """
    n_list = list(n_list)
    if not n_list:
        raise DomainError("need at least one term count")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError(
            f"field 'n_terms': term counts must be strictly increasing, got {n_list}")
    T = target.horizon
    _check_t_min(t_min, T)
    # log-spaced grid so the scaling window holds enough points for the fit
    hurst_grid = TimeGrid(np.concatenate([[0.0], np.geomspace(t_min, T, 128)]))
    gamma_target = energy_function(target, grid).values

    fitted_specs, l2_errors, sup_errors, hurst_estimates = [], [], [], []
    cs_all = True
    for n in n_list:
        fitted = fit_expsum(target, n, t_min)
        fitted_specs.append(
            {"weights": list(fitted.weights), "rates": list(fitted.rates)}
        )
        l2_errors.append(kernel_l2mu_distance(target, fitted))

        gamma_fit = energy_function(fitted, grid).values
        sup_errors.append(float(np.max(np.abs(gamma_fit - gamma_target))))
        cs_all = cs_all and _pointwise_cs_ok(target, fitted, grid, gamma_target,
                                             gamma_fit)

        h_hat, _r2 = estimate_hurst(
            energy_function(fitted, hurst_grid), (t_min, 10.0 * t_min)
        )
        hurst_estimates.append(h_hat)

    return ApproxReport(target.kernel_id, n_list, l2_errors, sup_errors,
                        hurst_estimates, fitted_specs, cs_all)
