"""Volterra kernel families, exact cell integrals, covariances and L2 distances.

Kernels are immutable and all operations are pure. Evaluation near the
diagonal s -> t is the delicate part: the Riemann-Liouville family behaves
like (t-s)^(H-1/2) and is integrated either in closed form or with a graded
(power-substituted) Gauss-Legendre rule that resolves the algebraic endpoint
singularity to the requested tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError

__all__ = [
    "TimeGrid",
    "Kernel",
    "BrownianKernel",
    "RiemannLiouvilleKernel",
    "ExpSumKernel",
    "TableKernel",
    "kernel_from_spec",
    "kernel_from_json",
    "covariance",
    "kernel_l2mu_distance",
    "equal_energy_grid",
]


# ---------------------------------------------------------------------------
# Time grids
# ---------------------------------------------------------------------------

def _check_horizon(horizon):
    if not 0.0 < horizon < math.inf:
        raise DomainError("field 'T': horizon must be positive and finite")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition 0 = t_0 < t_1 < ... < t_n = T."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise DomainError("grid needs at least two points")
        if times[0] != 0.0:
            raise DomainError("grid must start at exactly 0")
        if not np.all(np.diff(times) > 0):
            raise DomainError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, n_cells: int, horizon: float) -> "TimeGrid":
        if n_cells < 1:
            raise DomainError("need at least one cell")
        _check_horizon(horizon)
        return cls(np.linspace(0.0, horizon, n_cells + 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_cells(self) -> int:
        return self.times.size - 1

    def index_of(self, t: float) -> int:
        """Index i > 0 with times[i] == t (to 1e-12 relative), else DomainError."""
        i = int(np.argmin(np.abs(self.times - t)))
        if not math.isclose(self.times[i], t, rel_tol=1e-12, abs_tol=1e-15):
            raise DomainError(f"t={t} is not a grid point")
        if i == 0:
            raise DomainError("t must be a positive grid point")
        return i


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# budget and tolerances of the graded Gauss-Legendre engine
_QUAD_RTOL = 1e-9
_QUAD_ATOL = 1e-14
_GAUSS_ORDER = 16
_INITIAL_PANELS = 8
_MAX_PANELS = 4096

_LEGENDRE_CACHE: dict = {}


def _leggauss01(order):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if order not in _LEGENDRE_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _LEGENDRE_CACHE[order] = (0.5 * (x + 1.0), 0.5 * w)
    return _LEGENDRE_CACHE[order]


def _refining_gauss01(h, edges, what: str) -> float:
    """Integrate h over [edges[0], edges[-1]] with panel doubling until two
    passes agree.

    ``edges`` (increasing) cut the range into pieces, each split into the
    same number of equal panels, so a kink of h at an edge costs no
    accuracy. h must accept a vector of points and return integrand values.
    Raises NumericalError past the panel budget of each piece.
    """
    nodes, weights = _leggauss01(_GAUSS_ORDER)
    lo, span = edges[:-1, None], np.diff(edges)[:, None]
    n_panels = _INITIAL_PANELS
    prev = None
    val = 0.0
    diff = math.inf
    while n_panels <= _MAX_PANELS:
        width = span / n_panels
        offsets = (lo + np.arange(n_panels) * width).ravel()
        widths = np.repeat(width.ravel(), n_panels)
        pts = (offsets[:, None] + widths[:, None] * nodes[None, :]).ravel()
        vals = h(pts).reshape(offsets.size, -1)
        # with the one piece [0, 1] each width is a power of 2, which scales
        # the sum exactly: the value of one width times the panel sum
        val = float(np.sum((vals @ weights) * widths))
        if prev is not None:
            diff = abs(val - prev)
            if diff <= max(_QUAD_RTOL * abs(val), _QUAD_ATOL):
                return val
        prev = val
        n_panels *= 2
    raise NumericalError(f"quadrature for {what} did not converge within "
                         f"{_MAX_PANELS} panels", estimate=val, bound=diff)


def _grading_power(gamma_total, singular: bool) -> int:
    """Power p for the substitution s = m*(1 - v^p) resolving (m-s)^gamma."""
    if not singular:
        return 1
    return max(2, math.ceil(9.0 / (1.0 + gamma_total)))


# ---------------------------------------------------------------------------
# Kernel families
# ---------------------------------------------------------------------------

class Kernel:
    """Base class; subclasses are immutable parametric Volterra kernels."""

    kind = "abstract"
    horizon: float

    # -- evaluation ---------------------------------------------------------

    def lag_eval(self, t, lag, s):
        """K(t, s) from the stable lag t - s (arrays supported)."""
        raise NotImplementedError

    def cell_l2_rows(self, t, a, b):
        """Integral of K(t, r)^2 over [a, b], elementwise over broadcast
        arrays a < b (an array t broadcasts with them)."""
        raise NotImplementedError

    def total_l2(self, t):
        """Gamma(t) = integral of K(t, r)^2 over [0, t], elementwise in t.

        A scalar t gives a float; an array of times gives an array of the
        same shape.
        """
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        vals = self.cell_l2_rows(flat, 0.0, flat)
        return float(vals[0]) if ts.ndim == 0 else vals.reshape(ts.shape)

    # -- structure queries --------------------------------------------------

    @property
    def diag_exponent(self):
        """Algebraic exponent of K(t,s) ~ (t-s)^gamma at the diagonal, or None."""
        return None

    # -- serialization ------------------------------------------------------

    def spec_dict(self) -> dict:
        raise NotImplementedError

    @property
    def kernel_id(self) -> str:
        return json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, eq=False)
class RiemannLiouvilleKernel(Kernel):
    """K(t, s) = sqrt(2H) (t-s)^(H-1/2), normalized so Gamma(t) = t^(2H)."""

    hurst: float
    horizon: float = 1.0
    kind = "rl"

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise DomainError("field 'hurst': must lie strictly inside (0, 1)")
        _check_horizon(self.horizon)

    def lag_eval(self, t, lag, s):
        h = self.hurst
        return math.sqrt(2.0 * h) * np.asarray(lag, dtype=float) ** (h - 0.5)

    def cell_l2_rows(self, t, a, b):
        # K^2 = 2H (t-r)^(2H-1) integrates exactly to the power difference
        h2 = 2.0 * self.hurst
        ta = np.maximum(t - np.asarray(a, dtype=float), 0.0)
        tb = np.maximum(t - np.asarray(b, dtype=float), 0.0)
        return ta ** h2 - tb ** h2

    @property
    def diag_exponent(self):
        # at H = 1/2 the factor (t-s)^0 is not singular
        return None if self.hurst == 0.5 else self.hurst - 0.5

    def spec_dict(self):
        return {"kind": "rl", "hurst": self.hurst, "T": self.horizon}


@dataclass(frozen=True, eq=False)
class BrownianKernel(RiemannLiouvilleKernel):
    """K(t, s) = 1 on s < t: the driving Brownian motion itself, which is the
    Riemann-Liouville kernel at H = 1/2 and takes every formula from it."""

    hurst: float = field(default=0.5, init=False, repr=False)
    kind = "brownian"

    def spec_dict(self):
        return {"kind": "brownian", "T": self.horizon}


@dataclass(frozen=True, eq=False)
class ExpSumKernel(Kernel):
    """K(t, s) = sum_j c_j exp(-lambda_j (t - s)): Markovian (OU-mixture) kernel."""

    weights: tuple
    rates: tuple
    horizon: float = 1.0
    kind = "expsum"

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        r = tuple(float(x) for x in self.rates)
        if len(w) == 0 or len(w) != len(r):
            raise DomainError("field 'weights'/'rates': equal nonzero lengths required")
        if any(not math.isfinite(x) for x in w):
            raise DomainError("field 'weights': must be finite")
        if any((not math.isfinite(x)) or x <= 0 for x in r):
            raise DomainError("field 'rates': must be finite and strictly positive")
        _check_horizon(self.horizon)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)

    def lag_eval(self, t, lag, s):
        lag = np.asarray(lag, dtype=float)
        c = np.asarray(self.weights)
        lam = np.asarray(self.rates)
        return np.exp(-np.multiply.outer(lag, lam)) @ c

    def cell_l2_rows(self, t, a, b):
        # K^2 expands into exponentials with summed rates, integrable exactly
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(self.weights)
        lam = np.asarray(self.rates)
        cc = np.multiply.outer(c, c).ravel()
        mu = np.add.outer(lam, lam).ravel()
        ea = np.exp(-np.multiply.outer(t - a, mu))
        eb = np.exp(-np.multiply.outer(t - b, mu))
        return (eb - ea) @ (cc / mu)

    def spec_dict(self):
        return {
            "kind": "expsum",
            "weights": list(self.weights),
            "rates": list(self.rates),
            "T": self.horizon,
        }


@dataclass(frozen=True, eq=False)
class TableKernel(Kernel):
    """Kernel given by samples K(t_i, s_j) on a grid, bilinearly interpolated.

    Serves ingestion and regression tests only; queries outside the stored
    grid are domain errors.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)
    kind = "table"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        n = self.grid.times.size
        if vals.shape != (n, n):
            raise DomainError("field 'values': must be square over the grid times")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field 'values': must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self):
        return self.grid.horizon

    def _check_range(self, t, s):
        times = self.grid.times
        if np.any(t < times[0]) or np.any(t > times[-1]) or np.any(
            np.asarray(s) < times[0]
        ) or np.any(np.asarray(s) > times[-1]):
            raise DomainError("table kernel query outside stored grid")

    def _interp_row(self, t, s):
        """Bilinear interpolation of the sample table at (t, s arrays)."""
        times = self.grid.times
        self._check_range(t, s)
        i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        wt = (t - times[i]) / (times[i + 1] - times[i])
        row = (1.0 - wt) * self.values[i] + wt * self.values[i + 1]
        s = np.asarray(s, dtype=float)
        j = np.clip(np.searchsorted(times, s, side="right") - 1, 0, times.size - 2)
        ws = (s - times[j]) / (times[j + 1] - times[j])
        return (1.0 - ws) * row[j] + ws * row[j + 1]

    def lag_eval(self, t, lag, s):
        return self._interp_row(float(t), np.asarray(s, dtype=float))

    def cell_l2_rows(self, t, a, b):
        # piecewise linear in s along fixed t, so K^2 is piecewise quadratic
        # and the closed form (Kl^2 + Kl*Kr + Kr^2)/3 per piece is exact
        times = self.grid.times
        cells = np.broadcast(t, a, b)
        out = np.empty(cells.shape)
        for i, (ti, ai, bi) in enumerate(cells):
            self._check_range(ti, (ai, bi))
            cuts = times[(times > ai) & (times < bi)]
            pts = np.concatenate(([ai], cuts, [bi]))
            k = self._interp_row(float(ti), pts)
            kl, kr = k[:-1], k[1:]
            out.flat[i] = np.sum((kl * kl + kl * kr + kr * kr) / 3.0 * np.diff(pts))
        return out

    def spec_dict(self):
        return {
            "kind": "table",
            "times": [float(x) for x in self.grid.times],
            "values": [[float(v) for v in row] for row in self.values],
        }


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def kernel_from_spec(spec: dict) -> Kernel:
    """Build a kernel from its JSON-style spec dict."""
    if not isinstance(spec, dict):
        raise DomainError("kernel spec must be a JSON object")
    kind = spec.get("kind")
    try:
        if kind == "brownian":
            return BrownianKernel(horizon=float(spec["T"]))
        if kind == "rl":
            return RiemannLiouvilleKernel(
                hurst=float(spec["hurst"]), horizon=float(spec["T"])
            )
        if kind == "expsum":
            return ExpSumKernel(
                weights=tuple(spec["weights"]),
                rates=tuple(spec["rates"]),
                horizon=float(spec["T"]),
            )
        if kind == "table":
            return TableKernel(
                grid=TimeGrid(np.asarray(spec["times"], dtype=float)),
                values=np.asarray(spec["values"], dtype=float),
            )
    except KeyError as exc:
        raise DomainError(f"kernel spec missing field {exc.args[0]!r}") from None
    except DomainError:
        raise  # the constructor's own refusal names its field
    except (TypeError, ValueError) as exc:  # a field that does not convert
        raise DomainError(f"malformed kernel spec: {exc}") from None
    raise DomainError(f"field 'kind': unknown kernel kind {kind!r}")


def kernel_from_json(text: str) -> Kernel:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed kernel spec JSON: {exc}") from None
    return kernel_from_spec(spec)


# ---------------------------------------------------------------------------
# Covariance R(t, u) = int_0^(t^u) K1(t,s) K2(u,s) ds
# ---------------------------------------------------------------------------

def _check_same_horizon(k1, k2):
    if not math.isclose(k1.horizon, k2.horizon, rel_tol=1e-12):
        raise DomainError("kernels must share the horizon T")


def _covariance_quad(k1, k2, t, u):
    """Graded-quadrature fallback for covariance integrals.

    The rule runs in v, s = m*(1 - v^p) with m = min(t, u), graded toward
    v = 0 where a power law is singular. A table kernel is piecewise linear
    in s between its knots, so every knot in (0, m) is a panel edge, at
    v = (1 - s/m)^(1/p), and each piece is refined on its own panels.

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
        g = k.diag_exponent
        if g is not None and math.isclose(tau, m, rel_tol=1e-12):
            gamma += g
            lost += g
            singular = True
        elif g is not None:
            lost += min(g, 0.0)
    share = min(1.0, np.finfo(float).tiny * max(m, 1.0) / m) ** (1.0 + lost)
    if share > _QUAD_RTOL:
        raise NumericalError(
            f"covariance({t},{u}): lags that underflow may hold {share:.3g} of "
            f"the integral, above {_QUAD_RTOL:g}", bound=share)
    p = _grading_power(gamma, singular)
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

    return _refining_gauss01(h, edges, f"covariance({t},{u})")


def _cov_closed(k1, k2, t, u):
    """Closed-form covariance elementwise over equal-shape 1-D time arrays.

    Returns (values, closed): ``closed`` marks the elements whose pair and
    times admit a stable closed form, and ``values`` holds them there (0
    elsewhere). Brownian motion, the power law at H = 1/2, has family "rl":
    every power-law pair is closed, and so is a power law with an exp-sum
    whose time does not trail. Table kernels have no closed form.
    """
    m = np.minimum(t, u)
    (fa, ka, ta), (fb, kb, tb) = sorted(
        (("rl" if isinstance(k, RiemannLiouvilleKernel) else k.kind, k, x)
         for k, x in ((k1, t), (k2, u))), key=lambda p: p[0])
    closed = np.ones(m.shape, dtype=bool)

    if (fa, fb) == ("expsum", "expsum"):
        lam = np.asarray(ka.rates)[:, None]
        mu = np.asarray(kb.rates)
        cc = np.multiply.outer(np.asarray(ka.weights), np.asarray(kb.weights))
        vals = np.empty(m.shape)
        # elements x term pairs in chunks of about m.size, so the temporaries
        # stay a few times the output whatever the number of terms
        step = max(1, m.size // cc.size)
        for s in range(0, m.size, step):
            sa, sb, sm = (x[s:s + step, None, None] for x in (ta, tb, m))
            ee = (np.exp(-(lam * (sa - sm) + mu * (sb - sm)))
                  - np.exp(-(lam * sa + mu * sb)))
            terms = cc * ee / (lam + mu)
            vals[s:s + step] = np.sum(terms.reshape(sm.size, -1), axis=-1)
        return vals, closed
    if (fa, fb) == ("expsum", "rl"):
        # stable only where the exp-sum time does not trail the RL time
        closed = ~(ta < tb - 1e-12 * np.maximum(ta, tb))
        h = kb.hurst
        aa = h + 0.5
        lam = np.asarray(ka.rates)
        c = np.asarray(ka.weights)
        ta, tb, m = ta[closed, None], tb[closed, None], m[closed, None]
        ginc = special.gammainc(aa, lam * tb) - special.gammainc(aa, lam * (tb - m))
        terms = c * np.exp(-lam * (ta - tb)) * lam ** (-aa) * ginc
        vals = np.zeros(closed.shape)
        vals[closed] = (math.sqrt(2.0 * h) * special.gamma(aa)
                        * np.sum(terms, axis=-1))
        return vals, closed
    if (fa, fb) == ("rl", "rl"):
        # the diagonal test is math.isclose(ta, tb, rel_tol=1e-14), elementwise
        diag = np.abs(ta - tb) <= 1e-14 * np.maximum(np.abs(ta), np.abs(tb))
        ha, hb = ka.hurst, kb.hurst
        vals = 2.0 * math.sqrt(ha * hb) / (ha + hb) * m ** (ha + hb)
        # off it, one pass per time order with the later time's exponent
        # first; Python-float exponents keep numpy's scalar pow fast paths
        for h_late, h_early, late in ((ha, hb, ta > tb), (hb, ha, tb > ta)):
            at = late & ~diag
            lo, hi = m[at], np.maximum(ta, tb)[at]
            hyp = special.hyp2f1(1.0, 0.5 - h_late, 1.5 + h_early, lo / hi)
            vals[at] = (2.0 * math.sqrt(h_late * h_early) * lo ** (h_early + 0.5)
                        * hi ** (h_late - 0.5) * hyp / (h_early + 0.5))
        return vals, closed
    return np.zeros(m.shape), ~closed


def covariance(k1: Kernel, k2: Kernel, t, u):
    """E[X1_t X2_u] = int_0^(t^u) K1(t,s) K2(u,s) ds, elementwise in (t, u).

    Uses exact closed forms, evaluated over whole arrays, where the pair
    admits one (every power-law pair, Brownian motion included; see
    ``_cov_closed``), and a graded Gauss-Legendre rule, one element at a
    time, for the elements that do not: table kernels, trailing exp-sum times.

    Parameters
    ----------
    k1, k2 : Kernel
        Kernels sharing the horizon T.
    t, u : float or array_like
        Times in (0, T]; arrays broadcast against each other.

    Returns
    -------
    float for a scalar pair, else an array of the broadcast shape.
    """
    _check_same_horizon(k1, k2)
    ts, us = np.broadcast_arrays(np.asarray(t, dtype=float),
                                 np.asarray(u, dtype=float))
    shape = ts.shape
    ts, us = ts.ravel(), us.ravel()
    times = np.concatenate((ts, us))
    limit = k1.horizon * (1 + 1e-12)
    bad = ~((times > 0.0) & (times <= limit))
    if bad.any():
        raise DomainError(f"covariance time {times[np.argmax(bad)]} outside (0, T]")
    vals, closed = _cov_closed(k1, k2, ts, us)
    for i in np.flatnonzero(~closed):
        vals[i] = _covariance_quad(k1, k2, float(ts[i]), float(us[i]))
    return float(vals[0]) if shape == () else vals.reshape(shape)


# ---------------------------------------------------------------------------
# L2(mu) distance over the causal triangle
# ---------------------------------------------------------------------------

def kernel_l2mu_distance(k1: Kernel, k2: Kernel) -> float:
    """sqrt( int_0^T int_0^t (K1 - K2)^2 ds dt ) for stationary kernels
    (K(t, s) a function of t - s) sharing a horizon; a table kernel is
    refused."""
    _check_same_horizon(k1, k2)
    if isinstance(k1, TableKernel) or isinstance(k2, TableKernel):
        raise DomainError("the L2(mu) distance takes stationary kernels, not tables")
    T = k1.horizon
    gamma = 0.0
    singular = False
    for k in (k1, k2):
        g = k.diag_exponent
        if g is not None:
            gamma = min(gamma, 2.0 * g) if singular else 2.0 * g
            singular = True
    p = _grading_power(gamma, singular)

    def h(v):  # lag w = t - s has triangle measure (T - w) dw
        w = T * v ** p
        jac = T * p * v ** (p - 1)
        dk = k1.lag_eval(T, w, None) - k2.lag_eval(T, w, None)
        return dk * dk * (T - w) * jac

    value = _refining_gauss01(h, np.array([0.0, 1.0]), "l2mu(lag)")
    return math.sqrt(max(value, 0.0))


# ---------------------------------------------------------------------------
# Energy-adapted grids
# ---------------------------------------------------------------------------

def equal_energy_grid(k: Kernel, n_cells: int) -> TimeGrid:
    """Grid whose cells carry equal increments of Gamma(t) = int_0^t K(t,r)^2 dr.

    For a power law Gamma(t) = t^(2H), so the nodes are T (i/n)^(1/(2H)):
    graded toward 0, where Gamma rises fastest, for H < 1/2, and uniform for
    Brownian motion. Other kernels bisect Gamma. A DomainError names the
    energy function where Gamma(T) is not positive or the nodes do not
    strictly increase in floating point.
    """
    if n_cells < 1:
        raise DomainError("need at least one cell")
    T = k.horizon
    total = k.total_l2(T)
    if not total > 0.0:
        raise DomainError(f"the energy function Gamma(T) = {total:.3g} is not "
                          "positive, so it grades no grid; use --grid-kind uniform")
    if isinstance(k, RiemannLiouvilleKernel):
        frac = np.arange(n_cells + 1) / n_cells
        times = T * frac ** (1.0 / (2.0 * k.hurst))
    else:
        # bisect every interior node at once on [0, T], one array Gamma call
        # per step; a bracket that stops changing never changes again
        targets = total * np.arange(1, n_cells) / n_cells
        lo = np.zeros(n_cells - 1)
        hi = np.full(n_cells - 1, T)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = k.total_l2(mid) < targets
            new_lo = np.where(below, mid, lo)
            new_hi = np.where(below, hi, mid)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        times = np.concatenate(([0.0], 0.5 * (lo + hi), [T]))
    if not np.all(np.diff(times) > 0):
        raise DomainError(f"the energy function's {n_cells} equal increments give "
                          "grid times that do not strictly increase in floating "
                          "point; use --grid-kind uniform")
    return TimeGrid(times)
