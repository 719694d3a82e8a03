"""Reproducible batch simulation of Volterra Gaussian processes.

Driving noise comes from a counter-based generator: every normal draw is a
pure function of (seed, stream index, counter), so path p always sees the
same numbers no matter how paths are batched or distributed over workers.
The generator is the SplitMix64 finalizer applied to a Weyl sequence over
the combined (stream, counter) index; normals are produced by inverting the
standard normal CDF (Cephes ``ndtri``, max absolute error well below 1e-9).
"""

from __future__ import annotations

import csv
import gzip
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError, ResourceError
from .kernels import Kernel, TimeGrid, covariance

__all__ = [
    "RngStream",
    "PathBundle",
    "simulate_volterra",
    "simulate_cholesky",
    "volterra_weights",
    "dump_paths_csv",
    "DEFAULT_SIM_BUDGET",
]

DEFAULT_SIM_BUDGET = 2 ** 33

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHOLESKY_SALT = np.uint64(0x5DEECE66D)
_STREAM_SPAN = np.uint64(2 ** 32)


def _mix64(x):
    """SplitMix64 finalizer; uint64 array arithmetic wraps mod 2^64."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _uniforms(seed, streams, counters):
    """Open-interval (0,1) uniforms, one per (stream, counter) pair."""
    idx = streams.astype(np.uint64) * _STREAM_SPAN + counters.astype(np.uint64)
    words = _mix64(np.uint64(seed) + _GAMMA * (idx + np.uint64(1)))
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _normals_matrix(seed, stream_start, n_streams, n_draws, counter_start=0):
    """[n_streams x n_draws] standard normals, rows keyed by stream index.

    Streams and counters each index 2^32 values; a range past either would
    alias another stream's draws, so it is refused.
    """
    for what, start, count in (("stream indices", stream_start, n_streams),
                               ("draw counters", counter_start, n_draws)):
        if not 0 <= start <= start + count <= int(_STREAM_SPAN):
            raise DomainError(
                f"{what} [{start}, {start + count}) must lie in [0, 2^32)")
    streams = np.arange(stream_start, stream_start + n_streams, dtype=np.uint64)
    counters = np.arange(counter_start, counter_start + n_draws, dtype=np.uint64)
    u = _uniforms(seed, streams[:, None], counters[None, :])
    return special.ndtri(u)


@dataclass
class RngStream:
    """Counter-based N(0,1) stream: output is a pure function of the state."""

    seed: int
    stream_index: int
    counter: int = 0

    def normals(self, count: int) -> np.ndarray:
        out = _normals_matrix(
            np.uint64(self.seed % 2 ** 64),
            self.stream_index, 1, count, counter_start=self.counter,
        )[0]
        self.counter += count
        return out


@dataclass
class PathBundle:
    """Simulated driving increments and process values on a grid.

    dW has shape [paths x n_cells] (empty for the Cholesky oracle), X has
    shape [paths x (n_cells+1)] with X[:, 0] = 0.
    """

    grid: TimeGrid
    dW: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    kernel_id: str
    seed: int
    stream_offset: int = 0

    @property
    def n_paths(self) -> int:
        return self.X.shape[0]

    def z(self) -> np.ndarray:
        """Standardized increments dW_j / sqrt(dt_j)."""
        if self.dW.shape[1] == 0:
            raise DomainError("bundle has no driver decomposition")
        return self.dW / np.sqrt(self.grid.dt)[None, :]


def volterra_weights(k: Kernel, grid: TimeGrid) -> np.ndarray:
    """Cell weights Kbar[i, j] with Kbar^2 equal to the exact cell L2 mass.

    Row i gives the weights of X at grid point i over cells j < i; the weight
    sign follows the kernel's sign at the cell midpoint (an exp-sum kernel
    with negative weights can change sign).
    """
    n = grid.n_cells
    w = np.zeros((n + 1, n))
    for i in range(1, n + 1):
        w[i, :i] = _weight_row(k, grid.times, i)
    return w


def _weight_row(k: Kernel, times: np.ndarray, i: int) -> np.ndarray:
    """Signed weights of X at times[i] over cells j < i (row i of volterra_weights)."""
    t = times[i]
    mass = np.maximum(k.cell_l2_rows(t, times[:i], times[1:i + 1]), 0.0)
    mids = 0.5 * (times[:i] + times[1:i + 1])
    sign = np.sign(k.lag_eval(t, t - mids, mids))
    sign[sign == 0.0] = 1.0
    return sign * np.sqrt(mass)


def _check_budget(paths, n_cells, budget):
    required = paths * n_cells * n_cells
    if required > budget:
        raise ResourceError(
            f"simulation needs paths*cells^2 = {required}, over budget {budget}; "
            "raise the budget or simulate in smaller batches",
            required=required,
            budget=budget,
        )


def simulate_volterra(k: Kernel, grid: TimeGrid, paths: int, seed: int,
                      stream_offset: int = 0,
                      budget: int = DEFAULT_SIM_BUDGET,
                      weights: np.ndarray | None = None) -> PathBundle:
    """Simulate X_t = int_0^t K(t,s) dW_s on the grid for a batch of paths.

    Each path owns stream ``stream_offset + p``; the per-point variance of X
    matches the energy function to rounding by construction of the cell weights.

    Parameters
    ----------
    k : Kernel
    grid : TimeGrid
    paths : int
        Number of paths (>= 1).
    seed : int
        Master seed; (seed, stream) determines every draw.
    stream_offset : int
        First path's stream index, for block-wise generation.
    budget : int
        Refusal cap on paths * cells^2.
    weights : ndarray, optional
        Precomputed ``volterra_weights(k, grid)`` to share across blocks.
    """
    if paths < 1:
        raise DomainError("paths must be >= 1")
    n = grid.n_cells
    _check_budget(paths, n, budget)
    if weights is None:
        weights = volterra_weights(k, grid)
    z = _normals_matrix(np.uint64(seed % 2 ** 64), stream_offset, paths, n)
    dw = z * np.sqrt(grid.dt)[None, :]
    x = z @ weights.T
    return PathBundle(grid=grid, dW=dw, X=x, kernel_id=k.kernel_id,
                      seed=seed, stream_offset=stream_offset)


def simulate_cholesky(k: Kernel, grid: TimeGrid, paths: int, seed: int,
                      stream_offset: int = 0) -> PathBundle:
    """Exact-covariance Gaussian oracle: samples the vector (X_{t_1},...,X_{t_n}).

    The Gram matrix [R(t_i, t_j)] is factorized after a 1e-10 * trace jitter
    if plain Cholesky fails; dW is left empty (no driver decomposition).
    """
    if paths < 1:
        raise DomainError("paths must be >= 1")
    times = grid.times[1:]
    n = times.size
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = covariance(k, k, times[i], times[j])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(gram)
        try:
            chol = np.linalg.cholesky(gram + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            raise NumericalError(
                "covariance Gram matrix is not positive semidefinite "
                f"after {jitter:.3e} jitter"
            ) from None
    salted = int(_mix64(np.uint64(seed % 2 ** 64) ^ _CHOLESKY_SALT)[()])
    z = _normals_matrix(np.uint64(salted), stream_offset, paths, n)
    x = np.concatenate([np.zeros((paths, 1)), z @ chol.T], axis=1)
    return PathBundle(grid=grid, dW=np.zeros((paths, 0)), X=x,
                      kernel_id=k.kernel_id, seed=seed,
                      stream_offset=stream_offset)


def dump_paths_csv(bundle: PathBundle, path: str, compress: bool = False) -> None:
    """Write rows (path, t, X) for every path and grid point."""
    times = bundle.grid.times

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(["path", "t", "X"])
        for p in range(bundle.n_paths):
            for i, t in enumerate(times):
                writer.writerow([p, f"{t:.17g}", f"{bundle.X[p, i]:.17g}"])

    if compress:
        with gzip.open(path, "wt", newline="") as fh:
            write(fh)
    else:
        with open(path, "w", newline="") as fh:
            write(fh)
