"""Command line interface: one executable, machine-readable output.

Every run is fully determined by its RunConfig, which is echoed (with the
tool version) into every artifact; `--no-timestamp` makes JSON output
byte-identical across reruns of the same config.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .approx import convergence_suite, fit_expsum
from .bracket import cross_bracket, energy_function, estimate_hurst
from .errors import DomainError, NumericalError
from .itoverify import (
    TestFunction,
    _check_z,
    _hermgauss,
    verify_mean_identity,
    verify_multivariate,
    verify_pathwise_formula,
    verify_uniqueness_perturbation,
)
from .kernels import (
    TimeGrid,
    equal_energy_grid,
    kernel_from_json,
    kernel_from_spec,
)
from .paths import dump_paths_csv, simulate_cholesky, simulate_volterra
from .sandbox import sandbox_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Echo of everything that determines a run."""

    subcommand: str
    kernel: dict | None = None
    kernel2: dict | None = None
    grid_n: int = 256
    grid_kind: str = "uniform"
    ladder: list = field(default_factory=list)
    paths: int = 0
    seed: int = 0
    phi: dict | None = None
    t: float | None = None
    eps: float = 0.0
    n_terms: list = field(default_factory=list)
    t_min: float = 1e-3
    window: list = field(default_factory=list)
    fit_n: int = 0
    z: float = 4.0
    quad_order: int = 32
    threads: int = 1
    cases: int = 200
    format: str = "json"
    output: str | None = None
    compress: bool = False
    no_timestamp: bool = False


def _parse_float_list(text):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise DomainError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_int_list(text):
    return [int(x) for x in _parse_float_list(text)]


def _kernel_from_args(args, suffix=""):
    spec_path = getattr(args, f"kernel{suffix}_spec", None)
    if spec_path:
        try:
            with open(spec_path, "r", encoding="utf-8") as fh:
                return kernel_from_json(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read kernel spec file: {exc}") from None
    kind = getattr(args, f"kernel{suffix}", None)
    if kind is None:
        raise DomainError(
            f"field 'kernel{suffix}': pass --kernel{suffix} or --kernel{suffix}-spec"
        )
    horizon = getattr(args, "T", 1.0)
    if kind == "brownian":
        return kernel_from_spec({"kind": "brownian", "T": horizon})
    if kind == "rl":
        hurst = getattr(args, f"hurst{suffix}", None)
        if hurst is None:
            raise DomainError(f"field 'hurst{suffix}': required for the rl kernel")
        return kernel_from_spec({"kind": "rl", "hurst": hurst, "T": horizon})
    if kind == "expsum":
        weights = getattr(args, f"weights{suffix}", None)
        rates = getattr(args, f"rates{suffix}", None)
        if not weights or not rates:
            raise DomainError(
                f"field 'weights{suffix}'/'rates{suffix}': required for expsum"
            )
        return kernel_from_spec({
            "kind": "expsum",
            "weights": _parse_float_list(weights),
            "rates": _parse_float_list(rates),
            "T": horizon,
        })
    raise DomainError(f"field 'kernel{suffix}': unknown kernel kind {kind!r}")


def _phi_from_args(args):
    name = getattr(args, "phi", "square")
    if name == "square":
        return TestFunction.square(), {"family": "square"}
    if name in ("cos", "cosine"):
        freq = getattr(args, "phi_freq", 1.0)
        return TestFunction.cosine(freq), {"family": "cosine", "freq": freq}
    if name in ("mollified", "mollified_square"):
        cut = getattr(args, "phi_cut", 100.0)
        return TestFunction.mollified_square(cut), {
            "family": "mollified_square", "cut": cut,
        }
    if name == "poly":
        coeffs = getattr(args, "phi_coeffs", None)
        if not coeffs:
            raise DomainError("field 'phi-coeffs': required for poly")
        c = _parse_float_list(coeffs)
        return TestFunction.polynomial(c), {"family": "polynomial", "coeffs": c}
    raise DomainError(f"field 'phi': unknown test function {name!r}")


def _grid_for(kernel, n, kind):
    if kind == "uniform":
        return TimeGrid.uniform(n, kernel.horizon)
    if kind == "energy":
        return equal_energy_grid(kernel, n)
    raise DomainError(f"field 'grid-kind': unknown grid kind {kind!r}")


def _emit(config: RunConfig, payload: dict, text_lines) -> None:
    echoed = asdict(config)
    echoed.pop("output", None)  # the destination does not determine the run
    envelope = {
        "version": __version__,
        "config": echoed,
        **payload,
    }
    if not config.no_timestamp:
        envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if config.format == "json":
        out = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    elif config.format == "text":
        header = [f"volterra-ito {__version__}: {config.subcommand}"]
        out = "\n".join(header + list(text_lines)) + "\n"
    else:
        raise DomainError(f"field 'format': {config.format!r} unsupported here")
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _write_csv(config: RunConfig, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)

    if config.output:
        with open(config.output, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_bracket(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    grid = _grid_for(k, config.grid_n, config.grid_kind)
    if getattr(args, "kernel2", None) or getattr(args, "kernel2_spec", None):
        k2 = _kernel_from_args(args, "2")
        config.kernel2 = k2.spec_dict()
        ef = cross_bracket(k, k2, grid)
        col = "gamma_12"
    else:
        ef = energy_function(k, grid)
        col = "gamma"
    if config.format == "csv":
        _write_csv(config, ["t", col],
                   [(f"{t:.17g}", f"{v:.17g}") for t, v in ef.to_rows()])
    else:
        payload = {
            "bracket": {
                "t": [float(x) for x in ef.grid.times],
                col: [float(x) for x in ef.values],
                "monotone": ef.monotone,
            }
        }
        _emit(config, payload,
              [f"{col}(T) = {ef.values[-1]:.12g} on {grid.n_cells} cells"])
    return EXIT_OK


def _cmd_simulate(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    grid = _grid_for(k, config.grid_n, config.grid_kind)
    sampler = simulate_cholesky if args.sampler == "cholesky" else simulate_volterra
    bundle = sampler(k, grid, config.paths, config.seed)
    if config.format == "csv":
        if not config.output:
            raise DomainError("field 'output': simulate csv needs --output")
        dump_paths_csv(bundle, config.output, compress=config.compress)
        return EXIT_OK
    xt = bundle.X[:, -1]
    payload = {
        "simulate": {
            "paths": bundle.n_paths,
            "grid_n": grid.n_cells,
            "sampler": args.sampler,
            "mean_XT": float(np.mean(xt)),
            "var_XT": float(np.var(xt)),
        }
    }
    _emit(config, payload,
          [f"{bundle.n_paths} paths, var(X_T) = {np.var(xt):.6g}"])
    return EXIT_OK


def _report_exit(reports):
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _emit_reports(config, reports):
    payload = {"reports": [r.to_dict() for r in reports]}
    _emit(config, payload, [r.summary_line() for r in reports])


def _cmd_verify_mean(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    grid = _grid_for(k, config.grid_n, config.grid_kind)
    phi, phi_spec = _phi_from_args(args)
    config.phi = phi_spec
    t = config.t if config.t is not None else k.horizon
    rep = verify_mean_identity(k, phi, grid, config.paths, config.seed, t,
                               quad_order=config.quad_order, z=config.z,
                               threads=config.threads)
    _emit_reports(config, [rep])
    return _report_exit([rep])


def _cmd_verify_path(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    phi, phi_spec = _phi_from_args(args)
    config.phi = phi_spec
    if config.ladder:
        grids = [_grid_for(k, n, config.grid_kind) for n in config.ladder]
    else:
        grids = _grid_for(k, config.grid_n, config.grid_kind)
    t = config.t if config.t is not None else k.horizon
    rep = verify_pathwise_formula(k, phi, grids, config.paths, config.seed, t,
                                  quad_order=config.quad_order, z=config.z,
                                  threads=config.threads)
    _emit_reports(config, [rep])
    return _report_exit([rep])


def _cmd_verify_multi(args, config):
    k1 = _kernel_from_args(args)
    k2 = _kernel_from_args(args, "2")
    config.kernel = k1.spec_dict()
    config.kernel2 = k2.spec_dict()
    grid = _grid_for(k1, config.grid_n, config.grid_kind)
    t = config.t if config.t is not None else k1.horizon
    rep = verify_multivariate(k1, k2, args.phi2d, grid, config.paths,
                              config.seed, t, z=config.z,
                              threads=config.threads)
    _emit_reports(config, [rep])
    return _report_exit([rep])


def _cmd_verify_unique(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    grid = _grid_for(k, config.grid_n, config.grid_kind)
    phi, phi_spec = _phi_from_args(args)
    config.phi = phi_spec
    t = config.t if config.t is not None else k.horizon
    rep = verify_uniqueness_perturbation(
        k, phi, config.eps, grid, config.paths, config.seed, t,
        quad_order=config.quad_order, z=config.z, threads=config.threads,
    )
    _emit_reports(config, [rep])
    return _report_exit([rep])


def _cmd_sandbox(args, config):
    report = sandbox_suite(cases=config.cases, seed=config.seed or 20240801)
    payload = {"sandbox": report}
    lines = [
        f"{key} = {report[key]:.3e}"
        for key in sorted(report)
        if isinstance(report[key], float)
    ]
    lines.append(f"pass = {report['pass']}")
    _emit(config, payload, lines)
    return EXIT_OK if report["pass"] else EXIT_FAIL


def _cmd_approx(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    grid = _grid_for(k, config.grid_n, config.grid_kind)
    n_terms = config.n_terms or [2, 4, 8, 16]
    report = convergence_suite(k, n_terms, grid, config.paths, config.seed,
                               t_min=config.t_min)
    ok = (report.cauchy_schwarz_ok and report.l2_strictly_decreasing
          and report.bracket_nonincreasing)
    if config.format == "csv":
        _write_csv(config, ["n", "l2_err", "bracket_sup_err", "mean_residual"],
                   [(n, f"{a:.17g}", f"{b:.17g}", f"{c:.17g}")
                    for n, a, b, c in report.rows()])
        return EXIT_OK if ok else EXIT_FAIL
    payload = {"approx": report.to_dict()}
    lines = [
        f"n={n}: l2={a:.5e} bracket_sup={b:.5e} mean_res={c:.3e}"
        for n, a, b, c in report.rows()
    ]
    lines.append(
        f"l2 strictly decreasing = {report.l2_strictly_decreasing}, "
        f"bracket nonincreasing = {report.bracket_nonincreasing}, "
        f"cauchy-schwarz ok = {report.cauchy_schwarz_ok}"
    )
    _emit(config, payload, lines)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_hurst(args, config):
    k = _kernel_from_args(args)
    config.kernel = k.spec_dict()
    lo, hi = (config.window or [1e-3, 1e-1])
    if not 0.0 < lo < hi <= k.horizon:
        raise DomainError(
            f"field 'window': need 0 < lo < hi <= T, got [{lo}, {hi}]"
        )
    if config.fit_n:
        k_used = fit_expsum(k, config.fit_n, config.t_min)
        used_spec = k_used.spec_dict()
    else:
        k_used, used_spec = k, None
    grid = TimeGrid(np.concatenate([[0.0], np.geomspace(lo, k.horizon, 256)]))
    ef = energy_function(k_used, grid)
    h_hat, r2 = estimate_hurst(ef, (lo, hi))
    payload = {
        "hurst": {
            "estimate": h_hat,
            "r2": r2,
            "window": [lo, hi],
            "fitted_kernel": used_spec,
        }
    }
    _emit(config, payload, [f"H_hat = {h_hat:.6f} (r2 = {r2:.8f})"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_kernel_flags(p, suffix=""):
    p.add_argument(f"--kernel{suffix}",
                   choices=["brownian", "rl", "expsum"], default=None)
    p.add_argument(f"--kernel{suffix}-spec", dest=f"kernel{suffix}_spec",
                   default=None, help="path to a kernel spec JSON file")
    p.add_argument(f"--hurst{suffix}", type=float, default=None)
    p.add_argument(f"--weights{suffix}", default=None,
                   help="comma-separated exp-sum weights")
    p.add_argument(f"--rates{suffix}", default=None,
                   help="comma-separated exp-sum rates")


def _add_common_flags(p, paths_default=0):
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=256)
    p.add_argument("--grid-kind", choices=["uniform", "energy"],
                   default="uniform")
    p.add_argument("--paths", type=int, default=paths_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--z", type=float, default=4.0)
    p.add_argument("--quad-order", type=int, default=32,
                   help="Gauss-Hermite order; used only where the mollified "
                        "square's cutoff cuts the Gaussian stencil")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def _add_phi_flags(p):
    p.add_argument("--phi", default="square",
                   choices=["square", "cos", "cosine", "mollified",
                            "mollified_square", "poly"])
    p.add_argument("--phi-freq", type=float, default=1.0)
    p.add_argument("--phi-cut", type=float, default=100.0)
    p.add_argument("--phi-coeffs", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterra-ito",
        description="Verification suites for the operator Ito formula on "
                    "Volterra Gaussian processes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bracket", help="emit the energy function / cross-bracket")
    _add_kernel_flags(p)
    _add_kernel_flags(p, "2")
    _add_common_flags(p)

    p = sub.add_parser("simulate", help="simulate paths and dump them")
    _add_kernel_flags(p)
    _add_common_flags(p, paths_default=100)
    p.add_argument("--sampler", choices=["volterra", "cholesky"],
                   default="volterra")
    p.add_argument("--compress", action="store_true")

    p = sub.add_parser("verify-mean", help="mean identity check")
    _add_kernel_flags(p)
    _add_common_flags(p)
    _add_phi_flags(p)

    p = sub.add_parser("verify-path", help="pathwise operator Ito formula check")
    _add_kernel_flags(p)
    _add_common_flags(p, paths_default=10000)
    _add_phi_flags(p)
    p.add_argument("--ladder", default=None,
                   help="comma-separated grid sizes for the refinement ladder")

    p = sub.add_parser("verify-multi", help="multivariate formula check")
    _add_kernel_flags(p)
    _add_kernel_flags(p, "2")
    _add_common_flags(p, paths_default=10000)
    p.add_argument("--phi2d", choices=["xy", "x2+y2"], default="xy")

    p = sub.add_parser("verify-unique", help="correction-measure perturbation test")
    _add_kernel_flags(p)
    _add_common_flags(p)
    _add_phi_flags(p)
    p.add_argument("--eps", type=float, default=0.01)

    p = sub.add_parser("sandbox", help="exact Gaussian polynomial suite")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--no-timestamp", action="store_true")

    p = sub.add_parser("approx", help="exponential-sum convergence suite")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--n-terms", default="2,4,8,16")
    p.add_argument("--t-min", type=float, default=1e-4)

    p = sub.add_parser("hurst", help="bracket scaling exponent recovery")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--window-lo", type=float, default=1e-3)
    p.add_argument("--window-hi", type=float, default=1e-1)
    p.add_argument("--fit-n", type=int, default=0)
    p.add_argument("--t-min", type=float, default=1e-5)

    return parser


_COMMANDS = {
    "bracket": _cmd_bracket,
    "simulate": _cmd_simulate,
    "verify-mean": _cmd_verify_mean,
    "verify-path": _cmd_verify_path,
    "verify-multi": _cmd_verify_multi,
    "verify-unique": _cmd_verify_unique,
    "sandbox": _cmd_sandbox,
    "approx": _cmd_approx,
    "hurst": _cmd_hurst,
}


def _config_from_args(args) -> RunConfig:
    threads = getattr(args, "threads", None)
    source = "--threads"
    if threads is None:
        source = "VOLTERRA_ITO_THREADS"
        env = os.environ.get(source, "1")
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(
                f"field '{source}': expected an integer, got {env!r}"
            ) from None
    if threads < 1:
        raise DomainError(f"field '{source}': must be >= 1, got {threads}")
    if hasattr(args, "z"):
        # every subcommand with these flags refuses a bad value, used or not
        _check_z(args.z)
        _hermgauss(args.quad_order)
    return RunConfig(
        subcommand=args.subcommand,
        grid_n=getattr(args, "grid_n", 256),
        grid_kind=getattr(args, "grid_kind", "uniform"),
        ladder=_parse_int_list(args.ladder) if getattr(args, "ladder", None) else [],
        paths=getattr(args, "paths", 0),
        seed=getattr(args, "seed", 0),
        t=getattr(args, "t", None),
        eps=getattr(args, "eps", 0.0),
        n_terms=_parse_int_list(args.n_terms) if getattr(args, "n_terms", None) else [],
        t_min=getattr(args, "t_min", 1e-3),
        window=[args.window_lo, args.window_hi] if hasattr(args, "window_lo") else [],
        fit_n=getattr(args, "fit_n", 0),
        z=getattr(args, "z", 4.0),
        quad_order=getattr(args, "quad_order", 32),
        threads=threads,
        cases=getattr(args, "cases", 200),
        format=getattr(args, "format", "json"),
        output=getattr(args, "output", None),
        compress=getattr(args, "compress", False),
        no_timestamp=getattr(args, "no_timestamp", False),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    output = getattr(args, "output", None)
    try:
        config = _config_from_args(args)
        return _COMMANDS[args.subcommand](args, config)
    except OSError as exc:
        if output is None or exc.filename != output:
            raise
        print(f"error: cannot write {output}: {exc.strerror}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        msg = f"numerical error: {exc}"
        if exc.estimate is not None:
            msg += f" (estimate {exc.estimate:.6g}"
            if exc.bound is not None:
                msg += f", bound {exc.bound:.3g}"
            msg += ")"
        print(msg, file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
