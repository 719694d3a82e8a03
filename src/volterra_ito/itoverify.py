"""Test functions, their Gaussian smoothings and the verification suites.

All stochastic sums use the left-point (adapted) convention: the conditional
mean at cell j only sees increments strictly before the cell, matching the
predictable projection. Monte Carlo means and SEs come from one reducer over
fixed-size path blocks keyed by absolute path index, merged in path order by
the (count, mean, M2) update of Chan, Golub & LeVeque (1983): the SE does not
cancel, and results are bit-identical for any worker count. Every verdict
is |estimate - reference| <= z * se + bias_bound at z = DEFAULT_Z = 4, which
no caller sets: a wider band would turn any FAIL into a PASS.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .kernels import Kernel, TimeGrid, covariance
from .paths import _normal_chunks, _weight_row

__all__ = [
    "TestFunction",
    "VerificationReport",
    "verify_mean_identity",
    "verify_pathwise_formula",
    "verify_multivariate",
    "verify_uniqueness_perturbation",
]

BLOCK_PATHS = 4096
DEFAULT_Z = 4.0
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _leggauss01(order):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


# Where |m| + sqrt(2 v) _REACH <= cut, N(m, v) has mass below 1e-23 past the
# mollified square's cutoff, and its smoothing is the exact x^2 moments. _REACH
# is the top node of the order-32 Gauss-Hermite rule, which set this split.
_REACH = 7.125813909830728
_REACH_Z = math.sqrt(2.0) * _REACH  # the same reach in standard deviations
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BAND_RTOL = 1e-9
_BAND_CHUNK = 2048
_WIDE = 0.1  # sqrt(v) >= cut/10: nodes shared by all elements resolve N(m, v)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

def _bump_eta(y):
    """Smooth cutoff: 1 on |y|<=1, 0 on |y|>=2. Returns (eta, deta, d2eta) in y."""
    y = np.asarray(y, dtype=float)
    shape = y.shape
    yf = y.ravel()
    a = np.abs(yf)
    eta = np.where(a <= 1.0, 1.0, 0.0)
    d1 = np.zeros_like(a)
    d2 = np.zeros_like(a)
    trans = (a > 1.0) & (a < 2.0)
    if np.any(trans):
        at = a[trans]
        sa = 2.0 - at
        sb = at - 1.0
        u = np.exp(-1.0 / sa)
        v = np.exp(-1.0 / sb)
        up = -u / sa ** 2
        vp = v / sb ** 2
        upp = u / sa ** 4 - 2.0 * u / sa ** 3
        vpp = v / sb ** 4 - 2.0 * v / sb ** 3
        den = u + v
        num1 = up * v - u * vp
        eta[trans] = u / den
        d1_a = num1 / den ** 2
        d2_a = ((upp * v - u * vpp) * den - 2.0 * num1 * (up + vp)) / den ** 3
        d1[trans] = d1_a * np.sign(yf[trans])
        d2[trans] = d2_a
    return eta.reshape(shape), d1.reshape(shape), d2.reshape(shape)


class TestFunction:
    """A C^3 test function phi with evaluable phi, phi', phi'' and their
    Gaussian smoothings (``smooth``).

    Three families: polynomial (moments always finite but unbounded
    derivatives, admitted with that caveat), cosine phi(x) = cos(a x), and
    the mollified square x^2 eta(x/cut) whose second derivative is exactly 2
    on |x| <= cut.
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self, family, *, coeffs=None, freq=None, cut=None):
        self.family = family
        if family == "polynomial":
            c = np.atleast_1d(np.asarray(coeffs, dtype=float))
            if c.size == 0 or not np.all(np.isfinite(c)):
                raise DomainError("polynomial needs one or more finite coefficients")
            self.coeffs = c
            self.dcoeffs = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
            self.d2coeffs = (
                np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
            )
        elif family == "cosine":
            self.freq = float(freq)
            if not math.isfinite(self.freq):
                raise DomainError("cosine frequency must be finite")
        elif family == "mollified_square":
            self.cut = float(cut)
            if not (math.isfinite(self.cut) and self.cut > 0):
                raise DomainError("mollified square cutoff must be finite and positive")
        else:
            raise DomainError(f"unknown test function family {family!r}")

    # -- factories ----------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs) -> "TestFunction":
        return cls("polynomial", coeffs=coeffs)

    @classmethod
    def square(cls) -> "TestFunction":
        return cls("polynomial", coeffs=[0.0, 0.0, 1.0])

    @classmethod
    def cosine(cls, freq: float = 1.0) -> "TestFunction":
        return cls("cosine", freq=freq)

    @classmethod
    def mollified_square(cls, cut: float = 100.0) -> "TestFunction":
        return cls("mollified_square", cut=cut)

    # -- evaluation ---------------------------------------------------------

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.coeffs)
        if self.family == "cosine":
            return np.cos(self.freq * x)
        eta, _, _ = _bump_eta(x / self.cut)
        return x * x * eta

    def dphi(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.dcoeffs)
        if self.family == "cosine":
            return -self.freq * np.sin(self.freq * x)
        c = self.cut
        eta, e1, _ = _bump_eta(x / c)
        return 2.0 * x * eta + x * x * e1 / c

    def d2phi(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "polynomial":
            return np.polynomial.polynomial.polyval(x, self.d2coeffs)
        if self.family == "cosine":
            return -self.freq ** 2 * np.cos(self.freq * x)
        c = self.cut
        eta, e1, e2 = _bump_eta(x / c)
        return 2.0 * eta + 4.0 * x * e1 / c + x * x * e2 / c ** 2

    def smooth(self, order, m, v, out=None):
        """E[phi^(order)(m + sqrt(v) Z)] for Z ~ N(0,1) and order 0, 1 or 2.

        Polynomials use exact Gaussian moments and the cosine its
        characteristic function. The mollified square uses the exact x^2
        moments where the Gaussian stays inside the cutoff to _REACH_Z
        standard deviations, and ``_smooth_band`` where it reaches the band.
        ``out`` (of the broadcast shape, and may be ``m`` itself) receives the
        result in place.
        """
        m = np.asarray(m, dtype=float)
        v = _residual_variance(v)
        if out is None:
            out = np.empty(np.broadcast_shapes(m.shape, v.shape))
        if self.family == "polynomial":
            coeffs = (self.coeffs, self.dcoeffs, self.d2coeffs)[order]
            _gaussian_poly_mean(coeffs, m, v, out)
        elif self.family == "cosine":
            a = self.freq
            np.multiply(m, a, out=out)
            (np.cos, np.sin, np.cos)[order](out, out=out)
            out *= (1.0, -a, -a * a)[order] * np.exp(-0.5 * a * a * v)
        else:
            band = np.abs(m) + np.sqrt(2.0 * v) * _REACH > self.cut
            reach = None
            if np.any(band):  # copied before out, which may be m, is written
                reach = [a[band] for a in np.broadcast_arrays(m, v)]
            square = np.polynomial.polynomial.polyder([0.0, 0.0, 1.0], order)
            _gaussian_poly_mean(square, m, v, out)
            if reach is not None:
                out[band] = self._smooth_band(order, *reach)
        return float(out) if out.ndim == 0 else out

    def smooth_square_mean(self, order, s, v):
        """E[smooth(order, M, v)^2] for M ~ N(0, s), elementwise in (s, v),
        and a bound on its quadrature error.

        Closed forms for polynomials (Gaussian moments of the smoothed
        coefficients) and the cosine (E cos^2 = (1 + e^(-2 a^2 s)) / 2), whose
        error is 0. The mollified square takes Gauss-Legendre rules in m on
        each piece between its breakpoints +-cut, +-2 cut, within M's reach
        and the reach 2 cut + _REACH_Z sqrt(v) past which the smoothing is 0:
        Gauss-Hermite over M misses the band's swings of phi'' (order 32 gave
        7.39 for 20.39 at cut 1.5, s = 1, v = 0). Its error is the gap of the
        64- to the 128-node rule, whose value it returns.
        """
        s = _residual_variance(s)
        v = _residual_variance(v)
        if self.family == "polynomial":
            coeffs = (self.coeffs, self.dcoeffs, self.d2coeffs)[order]
            b = _smoothed_coeffs(coeffs, v)
            out = np.zeros(np.broadcast_shapes(s.shape, v.shape))
            for i, bi in enumerate(b):
                for j in range(i % 2, len(b), 2):  # E[M^(i+j)] = (i+j-1)!! s^((i+j)/2)
                    dfac = math.prod(range(i + j - 1, 0, -2))
                    out += bi * b[j] * dfac * s ** ((i + j) // 2)
            return out, 0.0
        if self.family == "cosine":
            a = self.freq
            sign = (1.0, -1.0, 1.0)[order]  # cos^2 or sin^2
            power = np.float64(a * a) ** order  # overflows to inf, never raises
            return (power * np.exp(-a * a * v)
                    * 0.5 * (1.0 + sign * np.exp(-2.0 * a * a * s))), 0.0
        shape = np.broadcast_shapes(s.shape, v.shape)
        s, v = (np.broadcast_to(a, shape).ravel() for a in (s, v))
        c = self.cut
        reach = np.minimum(_REACH_Z * np.sqrt(s), 2.0 * c + _REACH_Z * np.sqrt(v))
        edges = np.array([-np.inf, -2.0 * c, -c, c, 2.0 * c, np.inf])
        lo = np.clip(edges[:-1], -reach[:, None], reach[:, None])
        hi = np.clip(edges[1:], -reach[:, None], reach[:, None])
        el, piece = np.nonzero(hi > lo)
        span = (hi - lo)[el, piece, None]
        rules = []
        for t, wl in (_leggauss01(64), _leggauss01(128)):
            m = lo[el, piece, None] + span * t
            g = self.smooth(order, m, v[el, None])
            dens = (np.exp(-0.5 * m * m / s[el, None])
                    / np.sqrt(2.0 * math.pi * s[el, None]))
            rules.append(np.bincount(el, weights=(g * g * dens * span) @ wl,
                                     minlength=s.size).astype(float))  # int if el empty
        out, err = rules[1], np.abs(rules[1] - rules[0])
        point = s == 0.0  # M = 0
        out[point] = self.smooth(order, 0.0, v[point]) ** 2  # no pieces: err 0
        return out.reshape(shape), err.reshape(shape)

    def _smooth_band(self, order, m, v):
        """``smooth`` of the mollified square for 1-d m, v whose Gaussian
        reaches the band cut < |x| < 2 cut: truncated Gaussian moments of
        (x^2)^(order) on |x| <= cut, and on each band interval the 64- and
        128-node Gauss-Legendre rules (nodes shared in x by wide Gaussians,
        per element in z for narrow ones). NumericalError is raised where the
        rules differ by more than _BAND_RTOL of the result plus the band's
        absolute integral.
        """
        c = self.cut
        g = (self.phi, self.dphi, self.d2phi)[order]
        # both rules' nodes on [0, 1]; weight columns: 64-node, 128-node, 128 again
        (t64, w64), (t128, w128) = _leggauss01(64), _leggauss01(128)
        t = np.concatenate([t64, t128])
        w = np.zeros((t.size, 3))
        w[:t64.size, 0] = w64
        w[t64.size:, 1:] = w128[:, None]
        bands = ((c, 2.0 * c), (-2.0 * c, -c))
        x = np.concatenate([lo + (hi - lo) * t for lo, hi in bands])
        f = g(x)
        fw = np.vstack([w, w]) * np.column_stack([f, f, np.abs(f)])
        buf = np.empty((min(m.size, _BAND_CHUNK), x.size))
        out = np.empty(m.shape)
        for start in range(0, m.size, _BAND_CHUNK):  # chunks bound the memory
            mc, vc = m[start:start + _BAND_CHUNK], v[start:start + _BAND_CHUNK]
            s = np.sqrt(vc)
            with np.errstate(divide="ignore", invalid="ignore"):
                a, b = (-c - mc) / s, (c - mc) / s
                pa, pb = (np.exp(-0.5 * z * z) / _SQRT_2PI for z in (a, b))
                # P(|X| <= c); a window right of 0 differences the right tails
                p_in = np.where(a > 0, special.ndtr(-a) - special.ndtr(-b),
                                special.ndtr(b) - special.ndtr(a))
                inner = ((mc * mc + vc) * p_in + s * ((mc - c) * pa - (mc + c) * pb),
                         2.0 * (mc * p_in + s * (pa - pb)),
                         2.0 * p_in)[order]
            sums = np.zeros((mc.size, 3))  # band integrals: coarse, fine, |fine|
            wide = s >= _WIDE * c
            if np.any(wide):  # in place: q = exp(-(x - m)^2 / 2v) per element and node
                r = 1.0 / (math.sqrt(2.0) * s[wide])
                q = np.multiply.outer(r, x, out=buf[:r.size])
                q -= (mc[wide] * r)[:, None]
                np.square(q, out=q)
                np.negative(q, out=q)
                np.exp(q, out=q)
                sums[wide] = (q @ fw) * (r * (c / math.sqrt(math.pi)))[:, None]
            narrow = np.flatnonzero(~wide & (s > 0))
            mn, sn = mc[narrow], s[narrow]
            for lo, hi in bands:  # nodes per element in z, clipped to +-_REACH_Z
                za = np.clip((lo - mn) / sn, -_REACH_Z, _REACH_Z)
                zb = np.clip((hi - mn) / sn, -_REACH_Z, _REACH_Z)
                hit = zb > za
                span = (zb - za)[hit, None]
                z = za[hit, None] + span * t
                h = g(mn[hit, None] + sn[hit, None] * z) * np.exp(-0.5 * z * z)
                sums[narrow[hit]] += (span / _SQRT_2PI) * np.column_stack(
                    [h @ w[:, :2], np.abs(h) @ w[:, 2]])
            err = np.abs(sums[:, 1] - sums[:, 0])
            res = np.where(s > 0, inner + sums[:, 1], g(mc))
            floor = np.finfo(float).eps * c ** (2 - order)  # rounding of phi^(order)
            bad = ~(err <= _BAND_RTOL * (np.abs(res) + sums[:, 2]) + floor)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise NumericalError(
                    f"Gaussian smoothing of {self.label} on its cutoff band missed "
                    f"{_BAND_RTOL:g} relative at m={mc[i]:.6g}, v={vc[i]:.6g}",
                    estimate=float(res[i]), bound=float(err[i]))
            out[start:start + _BAND_CHUNK] = res
        return out

    @property
    def label(self) -> str:
        if self.family == "polynomial":
            return f"poly{self.coeffs.tolist()}"
        if self.family == "cosine":
            return f"cos({self.freq}x)"
        return f"x^2*eta(x/{self.cut})"


# ---------------------------------------------------------------------------
# Gaussian smoothing of polynomials
# ---------------------------------------------------------------------------

def _smoothed_coeffs(coeffs, v):
    """Coefficients b_i(v) in m of E[p(m + sqrt(v) Z)] = sum_i b_i m^i.

    b_i = sum over even l of c_(i+l) C(i+l, l) (l-1)!! v^(l/2): a float where
    no v term enters, else an array shaped like v. Trailing zero
    coefficients are dropped; the list is never empty.
    """
    nonzero = np.flatnonzero(coeffs)
    deg = int(nonzero[-1]) if nonzero.size else 0
    b = []
    for i in range(deg + 1):
        bi = 0.0
        for l in range(0, deg - i + 1, 2):
            c = coeffs[i + l]
            if c == 0.0:
                continue
            term = c * math.comb(i + l, l) * math.prod(range(l - 1, 0, -2))
            bi = bi + (term * v ** (l // 2) if l else term)
        b.append(bi)
    return b


def _gaussian_poly_mean(coeffs, m, v, out):
    """E[p(m + sqrt(v) Z)] exactly into ``out`` (which may be ``m``), by
    Horner in m over the smoothed coefficients."""
    b = _smoothed_coeffs(coeffs, v)
    deg = len(b) - 1
    if deg == 0:
        out[...] = b[0]
        return out
    if deg == 1:
        np.multiply(m, b[1], out=out)
    else:  # buf holds (b_deg m + ... + b_i) m; its last product lands in out
        buf = np.multiply(m, b[deg], out=np.empty(out.shape))
        for i in range(deg - 1, 0, -1):
            if np.any(b[i]):
                buf += b[i]
            np.multiply(buf, m, out=out if i == 1 else buf)
    if np.any(b[0]):
        out += b[0]
    return out


def _residual_variance(v):
    """v as a float array, with rounding-level negatives clipped to 0."""
    v = np.asarray(v, dtype=float)
    if np.any(v < -1e-12 * max(1.0, float(np.max(np.abs(v), initial=0.0)))):
        raise DomainError("residual variance must be nonnegative")
    return np.maximum(v, 0.0)


# ---------------------------------------------------------------------------
# Discrete conditional structure of X_t
# ---------------------------------------------------------------------------

def _prefix_masses(w):
    """(s, v): the variance of X_t's increments before cell j, and from it on."""
    s = np.concatenate([[0.0], np.cumsum(w * w)])
    return s[:-1], s[-1] - s[:-1]


def _co_sum_block(phi, w, z):
    """Clark-Ocone Ito sum for a block: rows of z, weights w for the target time.

    Per row, the sum over cells j of E[phi'(X_t) | F_{s_j}] w_j z_j, the
    conditional expectation being phi's smoothing at the adapted (m_j, v_j):
    m_j sums w_i z_i over i < j, v_j is ``_prefix_masses``'s residual variance.
    Two buffers of z's size: the increments w_j z_j and the conditional means
    m_j (their prefix sums), which the smoothing overwrites in place;
    ``_mc_mean_se`` hands it cache-sized chunks of rows.
    """
    contrib = z * w
    m = np.empty_like(contrib)
    m[:, 0] = 0.0
    np.cumsum(contrib[:, :-1], axis=1, out=m[:, 1:])
    cond = phi.smooth(1, m, _prefix_masses(w)[1], out=m)
    return np.einsum("ij,ij->i", cond, contrib)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Outcome of one check, which owns its verdict: ``passed`` iff ``holds``
    (the check's own condition: a pathwise ladder is monotone; the exact
    perturbation test's base identity passes and its residual exceeds
    bias_bound) and |estimate - reference| <= z * se + bias_bound,
    z = DEFAULT_Z. A non-finite estimate, reference, se or bias_bound judges
    nothing and raises NumericalError.
    """

    identity: str
    estimate: float
    reference: float
    se: float
    bias_bound: float
    grid_n: int
    paths: int
    seed: int
    holds: bool
    detail: dict
    z = DEFAULT_Z  # the verdict's confidence: echoed by to_dict, set by no caller

    def __post_init__(self):
        keys = ("estimate", "reference", "se", "bias_bound")
        for key in keys:
            setattr(self, key, float(getattr(self, key)))
        bad = [key for key in keys if not math.isfinite(getattr(self, key))]
        if bad:
            raise NumericalError(
                f"{self.identity} is not finite in {', '.join(bad)}",
                estimate=self.estimate, bound=self.bias_bound)

    @property
    def passed(self) -> bool:
        return bool(self.holds and abs(self.estimate - self.reference)
                    <= self.z * self.se + self.bias_bound)

    def to_dict(self) -> dict:
        keys = ("identity", "estimate", "reference", "se", "bias_bound",
                "grid_n", "paths", "seed", "z")
        return {**{key: getattr(self, key) for key in keys}, "pass": self.passed}

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.identity}: estimate={self.estimate:.6e} "
            f"reference={self.reference:.6e} se={self.se:.3e} "
            f"bias={self.bias_bound:.3e} grid_n={self.grid_n} paths={self.paths}"
        )


def _mc_mean_se(sample, paths, seed, n_draws, threads):
    """Monte Carlo mean and SE of ``sample(z)`` over ``paths`` draws of z.

    Each z holds, per path, the first ``n_draws`` normals of the path's own
    stream (``_normal_chunks``, keyed by absolute path index), and
    ``sample`` returns one value per row. A block of BLOCK_PATHS paths is
    drawn and sampled in ``_normal_chunks``'s cache-sized chunks of rows,
    so its scratch stays chunk-sized whatever ``paths`` and BLOCK_PATHS are.
    Each block gives (count, sum, M2), M2 two-pass about the block's own
    mean; merging them in path order (Chan, Golub & LeVeque) makes the
    result independent of ``threads``. A block whose M2 underflows has no
    spread, and M2 = 0, when its deviations are within the rounding of its
    mean, which no summation order takes past count * eps * max|value|
    (a constant sample whose mean rounds); a larger deviation has lost its
    square to underflow, and NumericalError is raised.
    """
    if paths < 2:
        raise DomainError(
            f"Monte Carlo needs at least 2 paths, got {paths}: one path has no "
            "standard error")
    # the whole range is refused here, before any block is drawn; the
    # iterator it returns draws nothing until iterated
    _normal_chunks(seed, 0, paths, n_draws)
    errstate = np.geterr()  # a new thread starts from numpy's default

    def block(start):
        count = min(BLOCK_PATHS, paths - start)
        vals = np.empty(count)
        with np.errstate(**errstate):
            for r0, z in _normal_chunks(seed, start, count, n_draws):
                vals[r0:r0 + len(z)] = sample(z)
        total = np.sum(vals)
        dev = vals - total / count
        m2 = np.sum(dev * dev)
        if m2 < _TINY and np.any(dev):
            if np.any(np.abs(dev) > count * _EPS * np.max(np.abs(vals))):
                raise NumericalError(
                    f"the Monte Carlo standard error underflows: a block's squared "
                    f"deviations sum to {m2:.3g}, below {_TINY:.3g}, and are not "
                    "all within the rounding of its mean")
            m2 = 0.0
        return count, total, m2

    starts = range(0, paths, BLOCK_PATHS)
    if threads <= 1:
        parts = [block(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(block, starts))
    n, total, m2 = parts[0]
    for nb, sb, m2b in parts[1:]:
        delta = sb / nb - total / n
        m2 += m2b + delta * delta * (n * nb / (n + nb))
        n, total = n + nb, total + sb
    return float(total / paths), float(np.sqrt(m2 / paths / paths))


def _gram_factor(rows):
    """Lower-triangular f with f f^T = G, the Gram matrix of the weight
    ``rows`` (one or two): X_t = Z w for each row is then exactly
    (f Z')_i with Z' as many standard normals as rows.

    Cholesky without pivoting, a zero pivot leaving its column 0 and a
    rounding-level negative residual variance clipped to 0; so for two rows
    X1 = s1 Z0 and X2 = (g12 / s1) Z0 + sqrt(max(g22 - g12^2 / s1^2, 0)) Z1,
    s1 = sqrt(g11), and X2 = sqrt(g22) Z1 when s1 = 0. Identical rows (a
    rank-1 G) and empty ones (X_0 = 0) are factored too.
    """
    g = np.array([[float(np.dot(a, b)) for b in rows] for a in rows])
    f = np.zeros_like(g)
    for i in range(len(rows)):
        for j in range(i):
            if f[j, j] > 0.0:
                f[i, j] = (g[i, j] - f[i, :j] @ f[j, :j]) / f[j, j]
        f[i, i] = math.sqrt(max(g[i, i] - f[i, :i] @ f[i, :i], 0.0))
    return f


def _terminal_mean_se(sample, rows, paths, seed, threads):
    """Monte Carlo mean and SE of ``sample(X1_t, ...)``, X_t = Z w for each
    weight row, drawn from their exact joint Gaussian law: path p reads only
    the first len(rows) normals of its stream and scales them by
    ``_gram_factor``. Checks that read nothing of the path but X_t use it;
    a check that reads the increments draws them all (``_mc_mean_se``)."""
    f = _gram_factor(rows)
    return _mc_mean_se(lambda z: sample(*(z @ f.T).T), paths, seed, len(rows),
                       threads)


# ---------------------------------------------------------------------------
# Mean identity
# ---------------------------------------------------------------------------

def _clenshaw_curtis01(n):
    """Weights on [0, 1] of the Clenshaw-Curtis rule of n + 1 nodes, n even
    dividing 64: the rule exact for T_k(1 - 2x), k <= n, whose integral is
    1 / (1 - k^2) for even k and 0 for odd k. Its nodes are
    ``_CC_NODES[::64 // n]``."""
    k = np.arange(n + 1.0)
    exact = np.where(k % 2, 0.0, 1.0) / (1.0 - k * k + k % 2)
    return np.linalg.solve(np.cos(np.pi / n * np.outer(k, k)), exact)


_CC_NODES = 0.5 * (1.0 - np.cos(np.pi / 64 * np.arange(65)))
# columns: the 65-node rule, and it minus the 33-node rule on its even nodes
_CC_WEIGHTS = np.column_stack([_clenshaw_curtis01(64)] * 2)
_CC_WEIGHTS[::2, 1] -= _clenshaw_curtis01(32)
# the panels' edges on [0, 1]: 0, 2^-64, 2^-63, ..., 1/2, 1
_PANELS = np.concatenate([[0.0], np.exp2(np.arange(-64.0, 1.0))])
_SPLITS = 2 ** np.arange(9)  # ways each panel is split: 1, 2, ..., 256


def _correction(phi, gamma_t):
    """(c, b): c = phi(0) + (1/2) int_0^Gamma(t) E[phi''(sqrt(g) Z)] dg, the
    correction (1/2) int_0^t E[phi''(X_s)] dGamma(s) in g = Gamma(s), and b
    a bound on |c - E[phi(X_t)]|.

    The panels [0, Gamma 2^-64] and [Gamma 2^-(k+1), Gamma 2^-k], k < 64, are
    graded toward 0, where rough kernels and high frequencies put the
    integrand's variation. Each takes the nested Clenshaw-Curtis rules of 65
    and 33 nodes, which include its ends. The panels are split m = 1, 2, 4,
    ... ways until half the rules' gap, summed over them, is at most 1e-13
    max(1, |c|); b is that plus the floor 1e-12 max(1, |c|). NumericalError
    is raised past 256 ways, and at once when Gamma(t), c or the gap is not
    finite.
    """
    if not math.isfinite(gamma_t):
        raise NumericalError("the energy function Gamma(t) is not finite",
                             estimate=float(gamma_t))
    for split in _SPLITS:
        lo = _PANELS[:-1, None] + np.diff(_PANELS)[:, None] * np.arange(split) / split
        h = gamma_t * np.repeat(np.diff(_PANELS) / split, split)
        g = phi.smooth(2, 0.0, gamma_t * lo.reshape(-1, 1) + h[:, None] * _CC_NODES)
        quad, diff = (g @ _CC_WEIGHTS).T * h
        c = float(phi.phi(0.0)) + 0.5 * float(np.sum(quad))
        gap = 0.5 * float(np.sum(np.abs(diff)))
        if not (math.isfinite(c) and math.isfinite(gap)):
            # no split makes a NaN or an overflowing integrand finite
            raise NumericalError(
                f"the Ito correction of {phi.label} is not finite over "
                "[0, Gamma(t)]", estimate=c, bound=gap)
        if gap <= 1e-13 * max(1.0, abs(c)):
            return c, gap + 1e-12 * max(1.0, abs(c))
    raise NumericalError(
        f"the Ito correction of {phi.label} is unresolved in {h.size} "
        "Clenshaw-Curtis panels over [0, Gamma(t)]", estimate=c, bound=gap)


def _without_constant(phi):
    """phi less a polynomial's constant: it cancels in what each check judges,
    and left in it would inflate the floors, 1e-12 max(1, |c|) and up."""
    if phi.family != "polynomial":
        return phi
    return TestFunction.polynomial(np.concatenate([[0.0], phi.coeffs[1:]]))


def verify_mean_identity(k: Kernel, phi: TestFunction, grid: TimeGrid,
                         paths: int, seed: int, t: float,
                         threads: int = 1) -> VerificationReport:
    """Check E[phi(X_t)] = phi(0) + (1/2) int_0^t E[phi''(X_s)] dGamma(s).

    The left side is computed exactly by the test function's smoothing
    and, when paths > 0, also by Monte Carlo on the grid; the right side is
    ``_correction``'s quadrature in g = Gamma(s) up to Gamma(t), with the
    error bound it returns. Only the Monte Carlo side uses the grid. A
    polynomial's constant is dropped first (``_without_constant``).
    """
    phi = _without_constant(phi)
    if paths < 0:
        raise DomainError("paths must be >= 0 (0 selects quadrature only)")
    t_idx = grid.index_of(t)
    gamma_t = k.total_l2(grid.times[t_idx])

    rhs, bias = _correction(phi, gamma_t)
    lhs_quad = float(phi.smooth(0, 0.0, gamma_t))

    detail = {
        "lhs_quadrature": lhs_quad,
        "residual_quadrature": abs(lhs_quad - rhs),
        "gamma_t": float(gamma_t),
    }
    if paths > 0:
        estimate, se = _terminal_mean_se(
            phi.phi, [_weight_row(k, grid.times, t_idx)], paths, seed, threads)
    else:
        estimate, se = lhs_quad, 0.0
    return VerificationReport("mean_identity", estimate, rhs, se, bias,
                              grid.n_cells, paths, seed, holds=True, detail=detail)


# ---------------------------------------------------------------------------
# Pathwise operator Ito formula
# ---------------------------------------------------------------------------

def _res2_reference(phi, w):
    """(Var phi(X_t) - E[CO_t^2], its error bound, E[CO_t^2]), X_t = Z w.

    With (E phi(X_t) - c)^2 this is E[res^2] on the grid: the Clark-Ocone
    cells are martingale increments with integrand E[phi'(X_t) | F_(s_j)], so
    by Stein's lemma E[(phi(X_t) - E phi(X_t)) CO_t] = E[CO_t^2]. The
    bound is the quadrature gaps plus 8 eps (E phi(X_t)^2 + E[CO_t^2]); gaps
    past _BAND_RTOL of the result raise NumericalError.
    """
    s, v = _prefix_masses(w)
    square, square_err = phi.smooth_square_mean(0, v[0], 0.0)
    cells, cells_err = phi.smooth_square_mean(1, s, v)
    co2 = float(np.sum(w * w * cells))
    mean = phi.smooth(0, 0.0, v[0])
    ref = float(square) - mean * mean - co2
    quad = float(square_err + np.sum(w * w * cells_err))
    rounding = 8.0 * np.finfo(float).eps * (float(square) + co2)
    if quad > _BAND_RTOL * abs(ref) + rounding:  # a NaN is the report's to refuse
        raise NumericalError(
            f"E[res^2] reference of {phi.label} missed {_BAND_RTOL:g} relative "
            "between its 64- and 128-node rules", estimate=ref, bound=quad)
    return ref, float(quad + rounding), co2


def _pathwise_res2_moments(k, phi, grid, paths, seed, t_idx, c_t, threads):
    """E[res^2] of res = phi(X_t) - c_t - CO_t by Monte Carlo, X_t = Z w_t
    drawn from the t_idx normals it reads, with the terms that judge it:
    ``_res2_reference``'s and a ``floor`` on the rounding of res^2,
    1e-24 E[(c_t + CO_t)^2].
    """
    w_t = _weight_row(k, grid.times, t_idx)

    def sample(z):
        res = phi.phi(z @ w_t) - c_t - _co_sum_block(phi, w_t, z)
        return res * res

    est, se = _mc_mean_se(sample, paths, seed, t_idx, threads)
    ref, ref_err, co2 = _res2_reference(phi, w_t)
    return {"grid_n": grid.n_cells, "estimate": est, "se": se,
            "reference": ref, "reference_error": ref_err,
            "floor": 1e-24 * (c_t * c_t + co2)}


def verify_pathwise_formula(k: Kernel, phi: TestFunction, grid, paths: int,
                            seed: int, t: float,
                            threads: int = 1) -> VerificationReport:
    """Check phi(X_t) = phi(0) + delta(Pi D phi(X_t)) + (1/2) int E[phi''(X_s)]
    dGamma(s) pathwise in L2.

    The estimate is E[res^2] by Monte Carlo. On the grid E[res^2] =
    Var phi(X_t) - E[CO_t^2] + (E phi(X_t) - c)^2, the last term at most b^2
    for ``_correction``'s bound b on c, which depends on Gamma(t) alone: c and
    b are computed once, at t on the finest grid, and b is
    ``detail["stieltjes_bias"]``. So the reference is the exact
    Var phi(X_t) - E[CO_t^2], and the bias bound is its error + b^2 + floor.
    A ladder of grids (strictly increasing cell counts) must also be
    nonincreasing, 1 SE of slack per rung; the finest grid is judged.
    """
    phi = _without_constant(phi)
    grids = list(grid) if isinstance(grid, (list, tuple)) else [grid]
    cells = [g.n_cells for g in grids]
    if any(b <= a for a, b in zip(cells, cells[1:])):
        raise DomainError(
            f"field 'ladder': cell counts must be strictly increasing, got {cells}")
    finest = grids[-1]
    c_t, b = _correction(phi, k.total_l2(finest.times[finest.index_of(t)]))
    ladder = [_pathwise_res2_moments(k, phi, g, paths, seed, g.index_of(t), c_t,
                                     threads) for g in grids]

    monotone = all(
        ladder[i + 1]["estimate"]
        <= ladder[i]["estimate"] + (ladder[i]["se"] + ladder[i + 1]["se"])
        for i in range(len(ladder) - 1)
    )
    final = ladder[-1]
    # b * b overflows to inf where b ** 2 raises
    bias = final["reference_error"] + b * b + final["floor"]
    return VerificationReport("pathwise_formula", final["estimate"],
                              final["reference"], final["se"], bias, finest.n_cells,
                              paths, seed, holds=monotone,
                              detail={"ladder": ladder, "monotone": monotone,
                                      "stieltjes_bias": b})


# ---------------------------------------------------------------------------
# Multivariate formula
# ---------------------------------------------------------------------------

def verify_multivariate(k1: Kernel, k2: Kernel, grid: TimeGrid,
                        paths: int, seed: int, t: float,
                        threads: int = 1) -> VerificationReport:
    """E[X1_t X2_t] = Gamma12(t) for two processes sharing one driver: the
    Monte Carlo mean of X1_t X2_t against the closed-form cross-bracket (the
    divergence terms have zero mean).
    """
    t_idx = grid.index_of(t)
    ref = covariance(k1, k2, t, t)
    w1 = _weight_row(k1, grid.times, t_idx)
    w2 = _weight_row(k2, grid.times, t_idx)
    model_cov = float(np.dot(w1, w2))
    est, se = _terminal_mean_se(np.multiply, [w1, w2], paths, seed, threads)
    return VerificationReport("multivariate_xy", est, ref, se, abs(model_cov - ref),
                              grid.n_cells, paths, seed, holds=True,
                              detail={"model_cross_bracket": model_cov})


# ---------------------------------------------------------------------------
# Uniqueness of the correction measure
# ---------------------------------------------------------------------------

def _lebesgue_term(k, phi, times):
    """L = int_0^t E[phi''(X_s)] ds by the midpoint rule on the cells of
    ``times``, which run from 0 to t."""
    mids = 0.5 * (times[:-1] + times[1:])
    return float(np.dot(phi.smooth(2, 0.0, k.total_l2(mids)), np.diff(times)))


def verify_uniqueness_perturbation(k: Kernel, phi: TestFunction, eps: float,
                                   grid: TimeGrid, t: float) -> VerificationReport:
    """Rerun the exact mean identity with integrator Gamma + eps*t, eps
    finite and nonzero, and require its residual to be detectably nonzero.

    The estimate is the residual |E phi(X_t) - rhs_nu| and the reference its
    threshold |eps / 2| |L|, judged by the identity rule with se = 0; the
    base identity must also pass and the residual exceed its bias_bound.
    L = int_0^t E[phi''(X_s)] ds, by the midpoint rule on the grid, enters
    rhs_nu = c + (eps / 2) L and the threshold alike, so its quadrature
    error cancels in residual - threshold.
    """
    if not (math.isfinite(eps) and eps != 0.0):
        raise DomainError(f"field 'eps': must be finite and nonzero, got {eps!r}")
    base = verify_mean_identity(k, phi, grid, 0, 0, t)
    lebesgue = _lebesgue_term(k, phi, grid.times[:grid.index_of(t) + 1])
    rhs_nu = base.reference + 0.5 * eps * lebesgue
    residual = abs(base.estimate - rhs_nu)
    tol = base.bias_bound
    detail = {"eps": eps, "rhs_perturbed": rhs_nu, "combined_tolerance": tol,
              "detection_ratio": residual / tol}
    return VerificationReport("uniqueness_perturbation", residual,
                              0.5 * abs(eps) * abs(lebesgue), 0.0, tol, grid.n_cells,
                              0, 0, holds=base.passed and residual > tol,
                              detail=detail)
