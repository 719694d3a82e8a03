"""Calibration of the terminal Monte Carlo checks over many seeds.

Runs the checks that read only X_t (the mean identity for phi = cos and
phi = x^2, and the xy cross-bracket of rl H = 0.25 against Brownian motion)
at seeds 0, 1, ..., N - 1 with a small path count, and prints per check:

- the false-FAIL rate at z = 4: every identity here holds, so
  each FAIL is false, and a calibrated SE fails about 6e-5 of runs;
- the z-scores (estimate - exact grid mean) / se: their mean, sd, min and
  max. A calibrated estimator gives mean near 0 and sd near 1.

The exact grid mean is the test function's smoothing at Gamma(t) for the
mean identity and the grid's cross-bracket sum_j w1_j w2_j for xy, so the
z-score leaves out the grid bias that the bias bound covers.

Run from a checkout (it imports the package from ``src`` beside it):

    python3 calibration/terminal.py --seeds 200

It exits 0 whenever every run completes, whatever the rates read.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from volterra_ito.itoverify import (  # noqa: E402
    TestFunction,
    verify_mean_identity,
    verify_multivariate,
)
from volterra_ito.kernels import (  # noqa: E402
    BrownianKernel,
    RiemannLiouvilleKernel,
    TimeGrid,
)

PATHS = 1000
GRID = TimeGrid.uniform(64, 1.0)
RL25 = RiemannLiouvilleKernel(hurst=0.25, horizon=1.0)
BM = BrownianKernel(horizon=1.0)


def _mean(phi):
    def run(seed):
        rep = verify_mean_identity(RL25, phi, GRID, PATHS, seed, 1.0)
        return rep.passed, (rep.estimate - rep.detail["lhs_quadrature"]) / rep.se
    return run


def _multi(seed):
    rep = verify_multivariate(RL25, BM, GRID, PATHS, seed, 1.0)
    return rep.passed, (rep.estimate - rep.detail["model_cross_bracket"]) / rep.se


CHECKS = {
    "verify-mean rl 0.25 cos": _mean(TestFunction.cosine()),
    "verify-mean rl 0.25 square": _mean(TestFunction.square()),
    "verify-multi rl 0.25 x brownian xy": _multi,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200,
                        help="run seeds 0 .. N-1 (default 200)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    print(f"seeds 0..{args.seeds - 1}, {PATHS} paths, grid_n {GRID.n_cells}, "
          "t = 1, z = 4")
    print(f"{'check':36s} {'false_fail':>10s} {'z_mean':>7s} {'z_sd':>6s} "
          f"{'z_min':>7s} {'z_max':>7s}")
    for name, run in CHECKS.items():
        results = [run(seed) for seed in range(args.seeds)]
        scores = [z for _, z in results]
        fails = sum(not passed for passed, _ in results)
        if not all(math.isfinite(z) for z in scores):
            print(f"error: {name}: a z-score is not finite", file=sys.stderr)
            return 1
        print(f"{name:36s} {fails / args.seeds:10.4f} "
              f"{statistics.fmean(scores):7.3f} {statistics.stdev(scores):6.3f} "
              f"{min(scores):7.3f} {max(scores):7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
