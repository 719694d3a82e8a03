"""Energy functions, intrinsic brackets and Hurst estimation.

The energy function Gamma(t) = int_0^t K(t,r)^2 dr is always computed from
the kernel's exact Gamma (closed form, or exact cell masses for tables),
never from sample variances: bracket values are deterministic to rounding
and the statistical machinery lives elsewhere. Integrals against dGamma are
not taken here: the Ito correction integrates in g = Gamma(s) itself
(``itoverify._correction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import Kernel, TimeGrid, covariance

__all__ = [
    "EnergyFunction",
    "energy_function",
    "cross_bracket",
    "estimate_hurst",
]


@dataclass
class EnergyFunction:
    """Sampled bracket t_i -> Gamma(t_i); ``monotone`` holds where no step
    falls by more than 1e-12 of the largest |Gamma(t_i)| (or of 1)."""

    grid: TimeGrid
    values: np.ndarray
    monotone: bool = field(init=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.times.shape:
            raise DomainError("values must align with the grid points")
        if vals[0] != 0.0:
            raise DomainError("energy function must start at 0")
        self.values = vals
        drop = -1e-12 * max(1.0, np.max(np.abs(vals)))
        self.monotone = bool(np.all(np.diff(vals) >= drop))


def energy_function(k: Kernel, grid: TimeGrid) -> EnergyFunction:
    """Gamma(t_i) at every grid point, from one direct evaluation of Gamma.

    The values agree with the cumulative sums of the exact cell L2 masses up
    to t_i to rounding, at O(n) cost instead of O(n^2).
    """
    vals = np.zeros(grid.times.size)
    vals[1:] = k.total_l2(grid.times[1:])
    return EnergyFunction(grid=grid, values=vals)


def cross_bracket(k1: Kernel, k2: Kernel, grid: TimeGrid) -> EnergyFunction:
    """<X1, X2>(t_i) = int_0^{t_i} K1(t_i,r) K2(t_i,r) dr, a signed measure."""
    times = grid.times
    vals = np.zeros(times.size)
    vals[1:] = covariance(k1, k2, times[1:], times[1:])
    return EnergyFunction(grid=grid, values=vals)


def estimate_hurst(g: EnergyFunction, fit_window) -> tuple:
    """Recover the scaling exponent: slope of log Gamma against log t, halved.

    Parameters
    ----------
    g : EnergyFunction
    fit_window : (t_lo, t_hi)
        Grid points with t_lo <= t <= t_hi enter the fit; at least 3 required
        and Gamma must be strictly positive on the window.

    Returns
    -------
    (H_hat, r2)
    """
    t_lo, t_hi = fit_window
    times = g.grid.times
    mask = (times >= t_lo) & (times <= t_hi) & (times > 0)
    if int(np.sum(mask)) < 3:
        raise DomainError("fit window must contain at least 3 grid points")
    vals = g.values[mask]
    if np.any(vals <= 0):
        raise DomainError("energy function must be strictly positive on the window")
    x = np.log(times[mask])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope) / 2.0, r2
