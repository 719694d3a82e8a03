"""Volterra kernel families, exact cell integrals, covariances and L2 distances.

Kernels are immutable and all operations are pure. Every integral is taken
in closed form. Near the diagonal s -> t the Riemann-Liouville family
behaves like (t-s)^(H-1/2), whose powers integrate exactly; a table row is
linear in s between its knots, so it integrates against any kernel piece by
piece (``TableKernel._product_integral``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError

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


def _check_cells(n_cells):
    # no check draws past 2^32 counters per path, and 2^32 times take 32 GiB
    if not 1 <= n_cells <= 2 ** 32:
        raise DomainError(f"need between 1 and 2^32 cells, got {n_cells}")


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
        _check_cells(n_cells)
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
# Closed-form moments
# ---------------------------------------------------------------------------

def _lag_moment(a, x):
    """M(a, x) = int_0^1 (1 - y) y^(a-1) e^(-x y) dy for a > 0 and x >= 0,
    elementwise over broadcast arrays: Gamma(a) (x^-a P(a, x) - a x^(-a-1)
    P(a+1, x)) from x = 1 on, P the regularized incomplete gamma function,
    and below, where those powers of x overflow as x -> 0, its series
    sum_k (-x)^k / (k! (a + k)(a + k + 1)). At a = 1 it is
    phi_2(x) = (x - 1 + e^-x) / x^2, a form that cancels at small x."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    small = x < 1.0
    xs = np.where(small, x, 0.0)
    series = np.zeros(xs.shape)
    for k in range(18, 0, -1):  # Horner; the first term left out is < 2e-16
        series = 1.0 / ((a + (k - 1)) * (a + k)) - xs / k * series
    xl = np.where(small, 1.0, x)
    large = special.gamma(a) * (xl ** -a * special.gammainc(a, xl)
                                - a * xl ** (-a - 1.0) * special.gammainc(a + 1.0, xl))
    return np.where(small, series, large)


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

    def _linear_moment(self, u, s0, s1, a0, a1):
        """Integral of l(s) K(u, s) over [s0, s1], elementwise over broadcast
        arrays s0 < s1 <= u, for the line l through (s0, a0) and (s1, a1)."""
        raise NotImplementedError

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

    def _linear_moment(self, u, s0, s1, a0, a1):
        # The lag L = u - s falls from L0 by rho = (s1 - s0) / L0 of it; the
        # hat functions of s0 and s1 integrate against L^(q-1), q = H + 1/2, to
        # L0^q / rho (e_(q+1) - (1 - rho) e_q) and L0^q / rho (e_q - e_(q+1)),
        # e_p = (1 - (1 - rho)^p) / p from expm1 and log1p: only the
        # differences cancel, by about 1 / rho. L0^q / rho is formed as
        # h L0^(q-1) / rho^2, which does not underflow at tiny lags.
        q = self.hurst + 0.5
        h = s1 - s0
        lag = u - s0
        rho = h / lag
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives e_p = 1/p
            e1, e2 = (-np.expm1(p * np.log1p(-rho)) / p for p in (q, q + 1.0))
        hats = a0 * (e2 - (1.0 - rho) * e1) + a1 * (e1 - e2)
        return math.sqrt(2.0 * self.hurst) * h * lag ** (q - 1.0) * hats / rho / rho

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

    def _linear_moment(self, u, s0, s1, a0, a1):
        # e^(-lam (u - s)) = e^(-lam (u - s1)) e^(-z y), z = lam (s1 - s0), y
        # from 0 at s1 to 1 at s0, so the ends weigh psi(z) = int y e^(-zy) dy
        # and phi_2(z): psi = phi_1 - phi_2 below z = 1 and (phi_1 - e^-z) / z
        # above, phi_1 = int e^(-zy) dy from exprel; neither branch cancels.
        h = s1 - s0
        out = 0.0
        for c, lam in zip(self.weights, self.rates):
            z = lam * h
            phi1 = special.exprel(-z)
            phi2 = _lag_moment(1.0, z)
            psi = np.where(z < 1.0, phi1 - phi2,
                           (phi1 - np.exp(-z)) / np.maximum(z, 1.0))
            out = out + c * np.exp(-lam * (u - s1)) * (a0 * psi + a1 * phi2)
        return h * out

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

    def _cell(self, x):
        """Index i and weight w of each x in its cell [times[i], times[i+1]]."""
        times = self.grid.times
        i = np.clip(np.searchsorted(times, x, side="right") - 1, 0, times.size - 2)
        return i, (x - times[i]) / (times[i + 1] - times[i])

    def _piece_values(self, i, wt, j, *s):
        """K(t, s) for each s in cell j, elementwise, with t at (i, wt) of
        ``_cell``: bilinear interpolation of the sample table."""
        times, v = self.grid.times, self.values
        left = (1.0 - wt) * v[i, j] + wt * v[i + 1, j]
        right = (1.0 - wt) * v[i, j + 1] + wt * v[i + 1, j + 1]
        width = times[j + 1] - times[j]
        return [(1.0 - ws) * left + ws * right
                for ws in ((x - times[j]) / width for x in s)]

    def lag_eval(self, t, lag, s):
        s = np.asarray(s, dtype=float)
        self._check_range(t, s)
        return self._piece_values(*self._cell(float(t)), self._cell(s)[0], s)[0]

    def cell_l2_rows(self, t, a, b):
        return self._product_integral(t, self, t, a, b)

    def _linear_moment(self, u, s0, s1, a0, a1):
        # two lines: h/6 (2 a0 b0 + a0 b1 + a1 b0 + 2 a1 b1), grouped so that
        # swapping the lines gives the same bits
        self._check_range(u, s1)
        b0, b1 = self._piece_values(*self._cell(u), self._cell(s0)[0], s0, s1)
        return (s1 - s0) / 6.0 * (2.0 * (a0 * b0 + a1 * b1) + (a0 * b1 + a1 * b0))

    def _product_integral(self, t, other, u, lo, hi):
        """Integral of K(t, s) other(u, s) over [lo, hi], elementwise over
        broadcast arrays lo <= hi <= u (<= t where ``other`` is a table).

        K(t, .) is linear in s between the table's knots, so each piece
        between the knots of both kernels is ``other._linear_moment``. The
        loop runs over pieces, each over the elements whose [lo, hi] it
        meets, so memory stays O(elements)."""
        t, u, lo, hi = np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in (t, u, lo, hi)))
        shape = t.shape
        t, u, lo, hi = (x.ravel() for x in (t, u, lo, hi))
        self._check_range(t, (lo, hi))
        knots = self.grid.times
        if isinstance(other, TableKernel):
            knots = np.union1d(knots, other.grid.times)
        # element e meets the count[e] pieces from [knots[first[e]], ...] on;
        # piece p lies in the table's cell cell[p]
        first = np.searchsorted(knots, lo, side="right") - 1
        count = np.where(hi > lo, np.searchsorted(knots, hi) - first, 0)
        cell = self._cell(knots[:-1])[0]
        i, wt = self._cell(t)
        total = np.zeros(t.size)
        for r in range(int(count.max(initial=0))):
            at = np.flatnonzero(count > r)
            p = first[at] + r
            s0 = np.maximum(knots[p], lo[at])
            s1 = np.minimum(knots[p + 1], hi[at])
            a0, a1 = self._piece_values(i[at], wt[at], cell[p], s0, s1)
            total[at] += other._linear_moment(u[at], s0, s1, a0, a1)
        return total.reshape(shape)

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


def _cov_closed(k1, k2, t, u):
    """Closed-form covariance elementwise over equal-shape 1-D time arrays.

    Brownian motion, the power law at H = 1/2, has family "rl": every
    power-law pair has one form. A table pairs with any kernel piece by piece
    (``TableKernel._product_integral``). An exp-sum time trailing a power-law
    time has no stable form (its incomplete gamma functions cancel); no
    command takes that pair, and it is refused with a DomainError.
    """
    m = np.minimum(t, u)
    (fa, ka, ta), (fb, kb, tb) = sorted(
        (("rl" if isinstance(k, RiemannLiouvilleKernel) else k.kind, k, x)
         for k, x in ((k1, t), (k2, u))), key=lambda p: p[0])

    if fb == "table":
        return kb._product_integral(tb, ka, ta, 0.0, m)
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
        return vals
    if (fa, fb) == ("expsum", "rl"):
        trailing = ta < tb - 1e-12 * np.maximum(ta, tb)
        if trailing.any():
            i = np.argmax(trailing)
            raise DomainError(
                f"covariance of an exp-sum kernel at {ta[i]} with a power law at "
                f"the later time {tb[i]} has no stable closed form")
        h = kb.hurst
        aa = h + 0.5
        lam = np.asarray(ka.rates)
        c = np.asarray(ka.weights)
        ta, tb, m = ta[:, None], tb[:, None], m[:, None]
        ginc = special.gammainc(aa, lam * tb) - special.gammainc(aa, lam * (tb - m))
        terms = c * np.exp(-lam * (ta - tb)) * lam ** (-aa) * ginc
        return math.sqrt(2.0 * h) * special.gamma(aa) * np.sum(terms, axis=-1)
    # (rl, rl): the diagonal test is math.isclose(ta, tb, rel_tol=1e-14),
    # elementwise
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
    return vals


def covariance(k1: Kernel, k2: Kernel, t, u):
    """E[X1_t X2_u] = int_0^(t^u) K1(t,s) K2(u,s) ds, elementwise in (t, u).

    Every pair is taken in closed form over whole arrays (``_cov_closed``):
    power laws (Brownian motion included) through hyp2f1, exp-sums with a
    power law through gammainc, and tables piece by piece between their
    knots. An exp-sum time trailing a power-law time, which no command
    takes, raises DomainError.

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
    vals = _cov_closed(k1, k2, ts, us)
    return float(vals[0]) if shape == () else vals.reshape(shape)


# ---------------------------------------------------------------------------
# L2(mu) distance over the causal triangle
# ---------------------------------------------------------------------------

def _lag_terms(k):
    """(c, g, lam) per term of a stationary kernel K(w) = sum c w^g e^(-lam w)
    of the lag w: one term for a power law, one per exponential of an exp-sum."""
    if isinstance(k, RiemannLiouvilleKernel):
        return [(math.sqrt(2.0 * k.hurst), k.hurst - 0.5, 0.0)]
    return [(c, 0.0, lam) for c, lam in zip(k.weights, k.rates)]


def kernel_l2mu_distance(k1: Kernel, k2: Kernel) -> float:
    """sqrt( int_0^T int_0^t (K1 - K2)^2 ds dt ) for stationary kernels
    (K(t, s) a function of t - s) sharing a horizon; a table kernel is
    refused.

    The lag w = t - s has measure (T - w) dw on the triangle, and K1 - K2 is
    a sum of N = n1 + n2 terms c w^g e^(-lam w) (``_lag_terms``), so the
    squared distance, ||K1||^2 + ||K2||^2 - 2 <K1, K2>, sums over all N^2
    pairs of terms c_i c_j T^(a+1) M(a, (lam_i + lam_j) T), a = g_i + g_j + 1
    (``_lag_moment``).

    Rounding: M is within 7.3e-15 of its value, relative, where a and x
    occur (x = 0, or a in [0.5, 1.5] and x up to 1e5; checked against
    40-digit arithmetic), and the sum adds at most N^2 eps of S, the sum of
    the terms' magnitudes. So the squared distance is off by at most
    (1e-14 + N^2 eps) S, and the distance d by that over 2 d: where d^2 is
    small against S the terms cancel, and d keeps fewer digits.
    """
    _check_same_horizon(k1, k2)
    if isinstance(k1, TableKernel) or isinstance(k2, TableKernel):
        raise DomainError("the L2(mu) distance takes stationary kernels, not tables")
    T = k1.horizon
    c, g, lam = np.array(_lag_terms(k1)
                         + [(-c, g, lam) for c, g, lam in _lag_terms(k2)]).T
    a = np.add.outer(g, g) + 1.0
    terms = np.outer(c, c) * T ** (a + 1.0) * _lag_moment(a, np.add.outer(lam, lam) * T)
    return math.sqrt(max(float(np.sum(terms)), 0.0))


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
    _check_cells(n_cells)
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
