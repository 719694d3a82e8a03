"""Helpers shared by the kernel tests: table kernels, and the graded
Gauss-Legendre quadrature that cross-checks every closed form.

The quadrature is an independent oracle: it integrates K1(t, s) K2(u, s)
from point evaluations (``lag_eval``) alone, with no closed form. It runs in
v, s = m*(1 - v^p), graded toward the diagonal where a power law is
singular, and doubles its panels until two passes agree to 1e-9 relative.
"""

import math

import numpy as np

from volterra_ito.errors import NumericalError
from volterra_ito.kernels import TableKernel, TimeGrid

# budget and tolerances of the graded Gauss-Legendre engine
QUAD_RTOL = 1e-9
_QUAD_ATOL = 1e-14
_GAUSS_ORDER = 16
_INITIAL_PANELS = 8
_MAX_PANELS = 4096

_NODES = 0.5 * (np.polynomial.legendre.leggauss(_GAUSS_ORDER)[0] + 1.0)
_WEIGHTS = 0.5 * np.polynomial.legendre.leggauss(_GAUSS_ORDER)[1]


def brownian_table(times):
    """Brownian motion tabulated on ``times``: 1 strictly below the diagonal."""
    times = np.asarray(times, dtype=float)
    return TableKernel(grid=TimeGrid(times),
                       values=np.tril(np.ones((times.size, times.size)), -1))


def ragged_table():
    """A table on a non-uniform grid with seeded values below the diagonal."""
    times = np.array([0.0, 0.07, 0.2, 0.23, 0.41, 0.5, 0.66, 0.9, 1.0])
    vals = np.tril(np.random.default_rng(5).uniform(-1.0, 2.0, (9, 9)), -1)
    return TableKernel(grid=TimeGrid(times), values=vals)


def table_of(kernel, times):
    """``kernel`` tabulated on ``times``: K(t_i, t_j) below the diagonal, 0
    on and above it."""
    times = np.asarray(times, dtype=float)
    lag = times[:, None] - times[None, :]
    below = lag > 0.0
    vals = np.zeros(lag.shape)
    vals[below] = kernel.lag_eval(None, lag[below], None)
    return TableKernel(grid=TimeGrid(times), values=vals)


def diag_exponent(k):
    """Algebraic exponent of K(t,s) ~ (t-s)^gamma at the diagonal, or None:
    a power law's H - 1/2, and none at H = 1/2 (Brownian motion), where the
    factor (t-s)^0 is not singular."""
    if k.kind in ("rl", "brownian") and k.hurst != 0.5:
        return k.hurst - 0.5
    return None


def refining_gauss01(h, edges, what: str) -> float:
    """Integrate h over [edges[0], edges[-1]] with panel doubling until two
    passes agree.

    ``edges`` (increasing) cut the range into pieces, each split into the
    same number of equal panels, so a kink of h at an edge costs no
    accuracy. h must accept a vector of points and return integrand values.
    Raises NumericalError past the panel budget of each piece.
    """
    lo, span = edges[:-1, None], np.diff(edges)[:, None]
    n_panels = _INITIAL_PANELS
    prev = None
    val = 0.0
    diff = math.inf
    while n_panels <= _MAX_PANELS:
        width = span / n_panels
        offsets = (lo + np.arange(n_panels) * width).ravel()
        widths = np.repeat(width.ravel(), n_panels)
        pts = (offsets[:, None] + widths[:, None] * _NODES[None, :]).ravel()
        vals = h(pts).reshape(offsets.size, -1)
        # with the one piece [0, 1] each width is a power of 2, which scales
        # the sum exactly: the value of one width times the panel sum
        val = float(np.sum((vals @ _WEIGHTS) * widths))
        if prev is not None:
            diff = abs(val - prev)
            if diff <= max(QUAD_RTOL * abs(val), _QUAD_ATOL):
                return val
        prev = val
        n_panels *= 2
    raise NumericalError(f"quadrature for {what} did not converge within "
                         f"{_MAX_PANELS} panels", estimate=val, bound=diff)


def grading_power(gamma_total, singular: bool) -> int:
    """Power p for the substitution s = m*(1 - v^p) resolving (m-s)^gamma."""
    if not singular:
        return 1
    return max(2, math.ceil(9.0 / (1.0 + gamma_total)))


def covariance_quad(k1, k2, t, u):
    """int_0^m K1(t, s) K2(u, s) ds, m = min(t, u), by the graded rule.

    A table kernel is piecewise linear in s between its knots, so every
    knot in (0, m) is a panel edge, at v = (1 - s/m)^(1/p), and each piece
    is refined on its own panels.

    Lags below L = tiny * max(m, 1), with tiny the smallest normal float,
    underflow or lose precision in m*v^p. Near lag 0 the integrand is
    lag^g times a factor that does not decrease, where g sums the diagonal
    exponent of each kernel whose time is m and the negative exponent of
    the other, so those lags hold at most (L/m)^(1 + g) of the integral;
    past the rule's relative tolerance a NumericalError is raised.
    """
    m = min(t, u)
    gamma = 0.0
    lost = 0.0
    singular = False
    for k, tau in ((k1, t), (k2, u)):
        g = diag_exponent(k)
        if g is not None and math.isclose(tau, m, rel_tol=1e-12):
            gamma += g
            lost += g
            singular = True
        elif g is not None:
            lost += min(g, 0.0)
    share = min(1.0, np.finfo(float).tiny * max(m, 1.0) / m) ** (1.0 + lost)
    if share > QUAD_RTOL:
        raise NumericalError(
            f"covariance({t},{u}): lags that underflow may hold {share:.3g} of "
            f"the integral, above {QUAD_RTOL:g}", bound=share)
    p = grading_power(gamma, singular)
    knots = np.array([s for k in (k1, k2) if isinstance(k, TableKernel)
                      for s in k.grid.times if 0.0 < s < m])
    edges = np.unique(np.concatenate(([0.0, 1.0], (1.0 - knots / m) ** (1.0 / p))))

    def h(v):
        w = m * v ** p
        jac = m * p * v ** (p - 1)
        s = np.maximum(m - w, 0.0)
        # Where m*v^p underflows to lag 0 a singular factor is inf and the
        # product NaN; the integrand's limit there is 0, as p(1 + gamma) > 1.
        with np.errstate(all="ignore"):
            f1 = k1.lag_eval(t, (t - m) + w, s)
            f2 = k2.lag_eval(u, (u - m) + w, s)
            return np.where(w == 0.0, 0.0, f1 * f2 * jac)

    return refining_gauss01(h, edges, f"covariance({t},{u})")


def l2mu_distance_quad(k1, k2):
    """sqrt( int_0^T (T - w) (K1(w) - K2(w))^2 dw ) for stationary kernels,
    by the graded rule in the lag w."""
    T = k1.horizon
    gamma = 0.0
    singular = False
    for k in (k1, k2):
        g = diag_exponent(k)
        if g is not None:
            gamma = min(gamma, 2.0 * g) if singular else 2.0 * g
            singular = True
    p = grading_power(gamma, singular)

    def h(v):  # lag w = t - s has triangle measure (T - w) dw
        w = T * v ** p
        jac = T * p * v ** (p - 1)
        dk = k1.lag_eval(T, w, None) - k2.lag_eval(T, w, None)
        return dk * dk * (T - w) * jac

    value = refining_gauss01(h, np.array([0.0, 1.0]), "l2mu(lag)")
    return math.sqrt(max(value, 0.0))
