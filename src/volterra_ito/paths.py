"""Reproducible batch simulation of Volterra Gaussian processes.

Driving noise comes from a counter-based generator: every normal draw is a
pure function of (seed, stream index, counter), so path p always sees the
same numbers no matter how paths are batched or distributed over workers.
The generator is the SplitMix64 finalizer applied to a Weyl sequence over
the combined (stream, counter) index; normals are produced by inverting the
standard normal CDF (Cephes ``ndtri``, max absolute error well below 1e-9).
A block of draws is evaluated in cache-sized chunks of rows, in three
buffers reused from chunk to chunk, with no full-size temporaries; the
chunking does not change any draw.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError, NumericalError
from .kernels import Kernel, TimeGrid, covariance

__all__ = [
    "simulate_volterra",
    "simulate_cholesky",
    "volterra_weights",
    "SIM_BUDGET",
]

SIM_BUDGET = 2 ** 26  # refusal cap on the float64 elements a sampler holds at peak

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHOLESKY_SALT = np.uint64(0x5DEECE66D)
_STREAM_SPAN = np.uint64(2 ** 32)
_CHUNK_WORDS = 2 ** 15  # words per chunk: its three 256 KiB buffers stay in L2


def _mix64(x, scratch=None):
    """SplitMix64 finalizer applied in place to the uint64 array ``x``.

    uint64 arithmetic wraps mod 2^64. ``scratch`` (same shape and dtype as
    ``x``) holds the shifted words; one is allocated when it is not given.
    """
    t = np.empty_like(x) if scratch is None else scratch
    np.right_shift(x, 30, out=t)
    x ^= t
    x *= _MIX1
    np.right_shift(x, 27, out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, 31, out=t)
    x ^= t
    return x


def _normal_chunks(seed, stream_start, n_streams, n_draws):
    """Row chunks of the [n_streams x n_draws] standard normals of
    ``_normals_matrix``, in row order: an iterator of (r0, z), z holding
    rows r0, r0 + 1, ... of the matrix.

    Draw (s, c) is ndtri(((w >> 11) + 0.5) * 2^-53) with w the SplitMix64
    finalizer of the Weyl index seed + GAMMA * (s * 2^32 + c + 1) mod 2^64;
    ``seed`` is any integer (or numpy integer), taken mod 2^64.
    That index splits into a per-row term seed + GAMMA * (s * 2^32 + 1) and a
    per-column term GAMMA * c, so it is formed by one broadcast add per chunk.

    A chunk holds about ``_CHUNK_WORDS`` words in a multiple of 4 rows (at
    least 4, the last chunk takes what is left): OpenBLAS gives such chunks
    ``z @ w`` of the whole matrix bit for bit, while 1, 3, 7 or 33 rows move
    it at rounding level. The iterator owns three chunk-sized buffers for
    its whole life, two uint64 words and the normals, and each z is a view
    of the last: it is overwritten by the next chunk. The draws do not
    depend on the chunking.

    Streams and counters each index 2^32 values; a range past either would
    alias another stream's draws, so it is refused here, before the first
    chunk is asked for.
    """
    for what, start, count in (("stream indices", stream_start, n_streams),
                               ("draw counters", 0, n_draws)):
        if not 0 <= start <= start + count <= int(_STREAM_SPAN):
            raise DomainError(
                f"{what} [{start}, {start + count}) must lie in [0, 2^32)")
    return _chunks(seed, stream_start, n_streams, n_draws)


def _chunks(seed, stream_start, n_streams, n_draws):
    """``_normal_chunks``'s iterator, its range already checked."""
    if n_streams == 0:  # no rows: allocate nothing, however many counters
        return
    streams = np.arange(stream_start, stream_start + n_streams, dtype=np.uint64)
    row_key = (np.uint64(int(seed) % 2 ** 64)
               + _GAMMA * (streams * _STREAM_SPAN + np.uint64(1)))
    col_key = _GAMMA * np.arange(n_draws, dtype=np.uint64)
    rows = max(4, _CHUNK_WORDS // max(n_draws, 1) // 4 * 4)
    words = np.empty((min(rows, n_streams), n_draws), dtype=np.uint64)
    scratch = np.empty_like(words)
    normals = np.empty(words.shape)
    for r0 in range(0, n_streams, rows):
        keys = row_key[r0:r0 + rows, None]
        x, t, z = words[:len(keys)], scratch[:len(keys)], normals[:len(keys)]
        np.add(keys, col_key, out=x)
        _mix64(x, t)
        x >>= np.uint64(11)
        np.add(x, 0.5, out=z)
        z *= 2.0 ** -53
        special.ndtri(z, out=z)
        yield r0, z


def _normals_matrix(seed, stream_start, n_streams, n_draws):
    """[n_streams x n_draws] standard normals, rows keyed by stream index:
    ``_normal_chunks`` copied into one matrix, with no full-size temporary.
    """
    chunks = _normal_chunks(seed, stream_start, n_streams, n_draws)
    out = np.empty((n_streams, n_draws))
    for r0, z in chunks:
        out[r0:r0 + len(z)] = z
    return out


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


def _check_budget(paths, n, squares):
    """Refuse a run before it allocates: paths must be >= 1, and the float64
    elements a sampler holds at peak, ``squares`` n x n matrices plus the
    normals and X (2 * paths * n), must not pass SIM_BUDGET."""
    if paths < 1:
        raise DomainError("paths must be >= 1")
    required = squares * n * n + 2 * paths * n
    if required > SIM_BUDGET:
        raise DomainError(
            f"simulation holds {required} float64 elements at peak, over budget "
            f"{SIM_BUDGET}; simulate fewer paths or cells")


def simulate_volterra(k: Kernel, grid: TimeGrid, paths: int, seed: int) -> np.ndarray:
    """Simulate X_t = int_0^t K(t,s) dW_s on the grid for a batch of paths.

    Returns X of shape [paths x (n_cells+1)] with X[:, 0] = 0. Path p owns
    stream p of ``seed``; the per-point variance of X matches the energy
    function to rounding by construction of the cell weights. The weight
    matrix counts once against SIM_BUDGET (``_check_budget``).
    """
    n = grid.n_cells
    _check_budget(paths, n, 1)
    z = _normals_matrix(seed, 0, paths, n)
    return z @ volterra_weights(k, grid).T


def simulate_cholesky(k: Kernel, grid: TimeGrid, paths: int, seed: int) -> np.ndarray:
    """Exact-covariance Gaussian oracle: samples the vector (X_{t_1},...,X_{t_n}).

    Returns X of shape [paths x (n_cells+1)] with X[:, 0] = 0. The Gram
    matrix [R(t_i, t_j)] is factorized after a 1e-10 * trace jitter if plain
    Cholesky fails. The Gram matrix, its factor and the covariance
    temporaries count as 4 n x n matrices against SIM_BUDGET
    (``_check_budget``). The lower triangle is filled in blocks of rows of
    at most n^2 / 32 elements; ``covariance`` holds about 15 float64 words
    per element, index arrays included, so a block's temporaries stay under
    half a matrix. Each element is computed on its own, so the blocking
    does not change the Gram matrix. With paths = 1 tracemalloc measures
    2.1-2.3 n^2 elements for power laws and exp-sums of up to 8 terms
    (n = 64 to 512), 2.1-2.7 n^2 for tables, and 3.1 n^2 on the jitter
    path. The normals are freed before X is padded with its zero column, so
    the paths hold 2 * paths * n elements at peak, as charged.
    """
    times = grid.times[1:]
    n = times.size
    _check_budget(paths, n, 4)
    gram = np.empty((n, n))
    rows = max(1, n // 32)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        # (i, j) with r0 <= i < r1 and j <= i, row by row
        i, j = np.nonzero(np.tri(r1 - r0, r1, r0, dtype=bool))
        i += r0
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
    salted = int(_mix64(np.array([seed % 2 ** 64], dtype=np.uint64)
                        ^ _CHOLESKY_SALT)[0])
    x = _normals_matrix(salted, 0, paths, n) @ chol.T  # the normals die here
    return np.concatenate([np.zeros((paths, 1)), x], axis=1)
