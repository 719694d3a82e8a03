"""Command line interface: one executable, machine-readable output.

Each subcommand parses only the flag groups it reads (see ``build_parser``).
A flag it does not read is unknown; that, a kernel flag the chosen kernel
does not read, a malformed value and a missing subcommand are usage errors,
which exit 2 like any other bad input. No flag sets a verdict's confidence:
every check judges at ``itoverify.DEFAULT_Z``.

Each subcommand returns its verdict, True where it judges nothing, and
``main`` alone maps it onto the exit code: 0 pass, 1 fail; a DomainError
exits 2 and a NumericalError 3.

A run is fully determined by its parsed flags; no environment variable is
read. They are echoed, with the tool version, into every artifact as
``config``: the kernel and test function flags appear as the spec dicts
they resolve to, and ``--output`` not at all. ``--no-timestamp`` makes JSON
output byte-identical across reruns of the same command line.

The parser is built by the first call of ``main`` in a process, not at
import, and reused by every later call: no flag's default is a mutable
object, and nothing changes the parser once it is built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gzip
import json
import sys
import time

import numpy as np

from . import __version__
from .approx import convergence_suite, fit_expsum
from .bracket import cross_bracket, energy_function, estimate_hurst
from .errors import DomainError, NumericalError
from .itoverify import (
    TestFunction,
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
from .paths import simulate_cholesky, simulate_volterra
from .sandbox import sandbox_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

_GRID_N = 256  # --grid-n's default

# What the config echo leaves out: the kernel and phi parameters show in the
# spec dicts they resolve to, and neither the destination nor the subcommand's
# runner (``run``, named by ``subcommand``) determines the run.
_NOT_ECHOED = frozenset({
    "T", "kernel_spec", "hurst", "weights", "rates",
    "kernel2_spec", "hurst2", "weights2", "rates2",
    "phi_freq", "phi_cut", "phi_coeffs", "output", "run",
})


def _list_of(kind, what):
    """argparse type: comma-separated values of ``kind``, none empty."""
    def parse(text):
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


_floats = _list_of(float, "numbers")
_ints = _list_of(int, "integers")


def _thread_count(text):
    """argparse type of --threads: an integer >= 1."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return threads


# the parameters each kernel kind reads from its flag group, all required
_KERNEL_PARAMS = {"brownian": (), "rl": ("hurst",), "expsum": ("weights", "rates")}


def _kernel_from_args(args, suffix=""):
    """The kernel of the kernel{suffix} flag group.

    Its spec dict replaces ``args.kernel{suffix}``, so the config echo shows
    the kernel that ran. A flag the kernel does not read is refused: beside
    --kernel{suffix}-spec every other flag of the group, and --T unless a
    kernel is built from flags; beside --kernel{suffix} the parameters of
    the other kinds.
    """
    spec_path = getattr(args, f"kernel{suffix}_spec")
    kind = getattr(args, f"kernel{suffix}")
    if spec_path:
        read, reader = (), f"--kernel{suffix}-spec"
    elif kind is None:
        raise DomainError(
            f"field 'kernel{suffix}': pass --kernel{suffix} or --kernel{suffix}-spec"
        )
    else:
        read, reader = ("kernel", *_KERNEL_PARAMS[kind]), f"--kernel{suffix} {kind}"
    unread = [f"{name}{suffix}" for name in ("kernel", "hurst", "weights", "rates")
              if name not in read and getattr(args, f"{name}{suffix}") is not None]
    if spec_path and args.T is not None and not any(
            vars(args).get(f"kernel{s}") is not None
            and not vars(args).get(f"kernel{s}_spec") for s in ("", "2")):
        unread.append("T")
    if unread:
        raise DomainError(
            f"field '{unread[0]}': --{unread[0]} is not read beside {reader}")
    if spec_path:
        try:
            with open(spec_path, "r", encoding="utf-8") as fh:
                k = kernel_from_json(fh.read())
        except OSError as exc:
            raise DomainError(f"cannot read kernel spec file: {exc}") from None
    else:
        spec = {"kind": kind, "T": 1.0 if args.T is None else args.T}
        for name in _KERNEL_PARAMS[kind]:
            spec[name] = getattr(args, f"{name}{suffix}")
            if spec[name] is None:
                raise DomainError(f"field '{name}{suffix}': required beside {reader}")
        k = kernel_from_spec(spec)
    setattr(args, f"kernel{suffix}", k.spec_dict())
    return k


def _phi_from_args(args):
    """The test function of the phi flags; its spec dict replaces ``args.phi``."""
    if args.phi == "square":
        phi, spec = TestFunction.square(), {"family": "square"}
    elif args.phi == "cos":
        phi = TestFunction.cosine(args.phi_freq)
        spec = {"family": "cosine", "freq": args.phi_freq}
    elif args.phi == "mollified":
        phi = TestFunction.mollified_square(args.phi_cut)
        spec = {"family": "mollified_square", "cut": args.phi_cut}
    else:
        if not args.phi_coeffs:
            raise DomainError("field 'phi-coeffs': required for poly")
        phi = TestFunction.polynomial(args.phi_coeffs)
        spec = {"family": "polynomial", "coeffs": args.phi_coeffs}
    args.phi = spec
    return phi


def _grid_for(kernel, n, kind):
    if kind == "uniform":
        return TimeGrid.uniform(n, kernel.horizon)
    return equal_energy_grid(kernel, n)


def _check_time(args, kernel):
    return kernel.horizon if args.t is None else args.t


def _emit(args, payload: dict, text_lines) -> None:
    """Write the payload in any format; a NaN or infinity raises NumericalError."""
    config = {key: value for key, value in vars(args).items()
              if key not in _NOT_ECHOED}
    envelope = {"version": __version__, "config": config, **payload}
    if not args.no_timestamp:
        envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        out = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:  # JSON refuses NaN and the infinities, nothing else here
        raise NumericalError(f"{args.subcommand} output is not finite") from None
    if args.format != "json":
        header = [f"volterra-ito {__version__}: {args.subcommand}"]
        out = "\n".join(header + list(text_lines)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _write_csv(args, header, *columns) -> None:
    """Write the broadcast ``columns`` as CSV rows under ``header``: the
    program's one CSV writer.

    Rows follow the broadcast shape in C order, one element of each column
    per row, streamed so no row list is built; floats print to 17
    significant digits and integers as integers. A non-finite column raises
    NumericalError before anything is written. Under ``--compress`` the file
    is gzipped.
    """
    if not all(np.all(np.isfinite(column)) for column in columns):
        raise NumericalError(f"{args.subcommand} output is not finite")

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row]
                         for row in np.broadcast(*columns))

    if not args.output:
        write(sys.stdout)
        return
    opener = gzip.open if vars(args).get("compress") else open
    with opener(args.output, "wt", newline="", encoding="utf-8") as fh:
        write(fh)


def _emit_report(args, rep):
    _emit(args, {"reports": [rep.to_dict()]}, [rep.summary_line()])
    return rep.passed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_bracket(args):
    k = _kernel_from_args(args)
    grid = _grid_for(k, args.grid_n, args.grid_kind)
    if any(getattr(args, name) is not None for name in (
            "kernel2", "kernel2_spec", "hurst2", "weights2", "rates2")):
        ef = cross_bracket(k, _kernel_from_args(args, "2"), grid)
        col = "gamma_12"
    else:
        ef = energy_function(k, grid)
        col = "gamma"
    if args.format == "csv":
        _write_csv(args, ["t", col], ef.grid.times, ef.values)
    else:
        payload = {
            "bracket": {
                "t": [float(x) for x in ef.grid.times],
                col: [float(x) for x in ef.values],
                "monotone": ef.monotone,
            }
        }
        _emit(args, payload,
              [f"{col}(T) = {ef.values[-1]:.12g} on {grid.n_cells} cells"])
    return True


def _cmd_simulate(args):
    if args.compress and args.format != "csv":
        raise DomainError("field 'compress': --compress only applies with --format csv")
    if args.format == "csv" and not args.output:
        raise DomainError("field 'output': simulate csv needs --output")
    k = _kernel_from_args(args)
    grid = _grid_for(k, args.grid_n, args.grid_kind)
    sampler = simulate_cholesky if args.sampler == "cholesky" else simulate_volterra
    x = sampler(k, grid, args.paths, args.seed)
    if args.format == "csv":
        _write_csv(args, ["path", "t", "X"], np.arange(x.shape[0])[:, None],
                   grid.times, x)
        return True
    xt = x[:, -1]
    payload = {
        "simulate": {
            "paths": x.shape[0],
            "grid_n": grid.n_cells,
            "sampler": args.sampler,
            "mean_XT": float(np.mean(xt)),
            "var_XT": float(np.var(xt)),
        }
    }
    _emit(args, payload, [f"{x.shape[0]} paths, var(X_T) = {np.var(xt):.6g}"])
    return True


def _cmd_verify_mean(args):
    for name, default in (("seed", 0), ("threads", 1)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.paths == 0:  # quadrature only: no path is drawn
            raise DomainError(f"field '{name}': --{name} only applies with --paths > 0")
    k = _kernel_from_args(args)
    grid = _grid_for(k, args.grid_n, args.grid_kind)
    phi = _phi_from_args(args)
    return _emit_report(args, verify_mean_identity(
        k, phi, grid, args.paths, args.seed, _check_time(args, k),
        threads=args.threads))


def _cmd_verify_path(args):
    if args.ladder and args.grid_n is not None:  # it would echo a grid never run
        raise DomainError("field 'ladder': give --ladder or --grid-n, not both")
    k = _kernel_from_args(args)
    phi = _phi_from_args(args)
    if args.ladder:
        grids = [_grid_for(k, n, args.grid_kind) for n in args.ladder]
    else:
        args.grid_n = _GRID_N if args.grid_n is None else args.grid_n
        grids = _grid_for(k, args.grid_n, args.grid_kind)
    return _emit_report(args, verify_pathwise_formula(
        k, phi, grids, args.paths, args.seed, _check_time(args, k),
        threads=args.threads))


def _cmd_verify_multi(args):
    k1 = _kernel_from_args(args)
    k2 = _kernel_from_args(args, "2")
    grid = _grid_for(k1, args.grid_n, args.grid_kind)
    return _emit_report(args, verify_multivariate(
        k1, k2, grid, args.paths, args.seed, _check_time(args, k1),
        threads=args.threads))


def _cmd_verify_unique(args):
    k = _kernel_from_args(args)
    grid = _grid_for(k, args.grid_n, args.grid_kind)
    phi = _phi_from_args(args)
    return _emit_report(args, verify_uniqueness_perturbation(
        k, phi, args.eps, grid, _check_time(args, k)))


def _cmd_sandbox(args):
    report = sandbox_suite(cases=args.cases, seed=args.seed)
    lines = [
        f"{key} = {report[key]:.3e}"
        for key in sorted(report)
        if isinstance(report[key], float)
    ]
    lines.append(f"pass = {report['pass']}")
    _emit(args, {"sandbox": report}, lines)
    return report["pass"]


def _cmd_approx(args):
    k = _kernel_from_args(args)
    grid = _grid_for(k, args.grid_n, args.grid_kind)
    report = convergence_suite(k, args.n_terms, grid, t_min=args.t_min)
    columns = report.n_terms, report.l2_errors, report.bracket_sup_errors
    if args.format == "csv":
        _write_csv(args, ["n", "l2_err", "bracket_sup_err"], *columns)
        return report.passed
    lines = [f"n={n}: l2={a:.5e} bracket_sup={b:.5e}" for n, a, b in zip(*columns)]
    lines.append(
        f"l2 strictly decreasing = {report.l2_strictly_decreasing}, "
        f"bracket nonincreasing = {report.bracket_nonincreasing}, "
        f"cauchy-schwarz ok = {report.cauchy_schwarz_ok}"
    )
    _emit(args, {"approx": report.to_dict()}, lines)
    return report.passed


def _cmd_hurst(args):
    k = _kernel_from_args(args)
    lo, hi = args.window_lo, args.window_hi
    if not 0.0 < lo < hi <= k.horizon:
        raise DomainError(
            f"field 'window': need 0 < lo < hi <= T, got [{lo}, {hi}]"
        )
    if args.fit_n:
        args.t_min = 1e-5 if args.t_min is None else args.t_min
        k_used = fit_expsum(k, args.fit_n, args.t_min)
        used_spec = k_used.spec_dict()
    elif args.t_min is not None:
        raise DomainError("field 't_min': --t-min only applies with --fit-n")
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
    _emit(args, payload, [f"H_hat = {h_hat:.6f} (r2 = {r2:.8f})"])
    return True


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError: main() reports them on one line and
    returns 2, where argparse would print usage and exit."""

    def error(self, message):
        raise DomainError(message)


def _add_kernel_flags(p, suffix=""):
    p.add_argument(f"--kernel{suffix}", choices=["brownian", "rl", "expsum"])
    p.add_argument(f"--kernel{suffix}-spec", help="path to a kernel spec JSON file")
    p.add_argument(f"--hurst{suffix}", type=float)
    p.add_argument(f"--weights{suffix}", type=_floats,
                   help="comma-separated exp-sum weights")
    p.add_argument(f"--rates{suffix}", type=_floats,
                   help="comma-separated exp-sum rates")
    if not suffix:
        p.add_argument("--T", type=float, help="kernel horizon; default 1")


def _add_grid_flags(p):
    p.add_argument("--grid-n", type=int, default=_GRID_N)
    p.add_argument("--grid-kind", choices=["uniform", "energy"], default="uniform")


def _add_draw_flags(p, paths):
    p.add_argument("--paths", type=int, default=paths)
    p.add_argument("--seed", type=int, default=0)


def _add_time_flag(p):
    p.add_argument("--t", type=float, default=None,
                   help="time of the check; default the horizon")


def _add_check_flags(p):
    _add_time_flag(p)
    p.add_argument("--threads", type=_thread_count, default=1,
                   help="Monte Carlo worker threads")


def _add_phi_flags(p):
    p.add_argument("--phi", default="square",
                   choices=["square", "cos", "mollified", "poly"])
    p.add_argument("--phi-freq", type=float, default=1.0)
    p.add_argument("--phi-cut", type=float, default=100.0)
    p.add_argument("--phi-coeffs", type=_floats)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built once per process and shared, so never changed."""
    parser = _Parser(
        prog="volterra-ito",
        description="Verification suites for the operator Ito formula on "
                    "Volterra Gaussian processes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, summary, run, formats=("json", "text")):
        """The subcommand ``name``, which ``main`` hands to ``run``."""
        # no prefix matching: an abbreviation would let an unread flag in
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--output", default=None)
        p.add_argument("--no-timestamp", action="store_true")
        return p

    def check(name, summary, run, paths):
        """A check of one kernel against a test function."""
        p = command(name, summary, run)
        _add_kernel_flags(p)
        _add_grid_flags(p)
        _add_draw_flags(p, paths)
        _add_check_flags(p)
        _add_phi_flags(p)
        return p

    tables = ("json", "csv", "text")

    p = command("bracket", "emit the energy function / cross-bracket", _cmd_bracket,
                tables)
    _add_kernel_flags(p)
    _add_kernel_flags(p, "2")
    _add_grid_flags(p)

    p = command("simulate", "simulate paths and dump them", _cmd_simulate, tables)
    _add_kernel_flags(p)
    _add_grid_flags(p)
    _add_draw_flags(p, paths=100)
    p.add_argument("--sampler", choices=["volterra", "cholesky"],
                   default="volterra")
    p.add_argument("--compress", action="store_true")

    p = check("verify-mean", "mean identity check", _cmd_verify_mean, paths=0)
    # refused at --paths 0, which draws nothing; 0 and 1 when not given
    p.set_defaults(seed=None, threads=None)

    p = check("verify-path", "pathwise operator Ito formula check", _cmd_verify_path,
              paths=10000)
    p.add_argument("--ladder", type=_ints,
                   help="comma-separated grid sizes for the refinement ladder")
    p.set_defaults(grid_n=None)  # _GRID_N unless a ladder is given

    p = command("verify-multi", "multivariate formula check", _cmd_verify_multi)
    _add_kernel_flags(p)
    _add_kernel_flags(p, "2")
    _add_grid_flags(p)
    _add_draw_flags(p, paths=10000)
    _add_check_flags(p)
    # X1_t X2_t, the only mode: echoed in config, read by no check
    p.add_argument("--phi2d", choices=["xy"], default="xy")

    p = command("verify-unique", "correction-measure perturbation test",
                _cmd_verify_unique)
    _add_kernel_flags(p)
    _add_grid_flags(p)
    _add_time_flag(p)
    _add_phi_flags(p)
    p.add_argument("--eps", type=float, default=0.01)

    p = command("sandbox", "exact Gaussian polynomial suite", _cmd_sandbox)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=20240801)

    p = command("approx", "exponential-sum convergence suite", _cmd_approx, tables)
    _add_kernel_flags(p)
    _add_grid_flags(p)
    p.add_argument("--n-terms", type=_ints, default=(2, 4, 8, 16))
    p.add_argument("--t-min", type=float, default=1e-4)

    p = command("hurst", "bracket scaling exponent recovery", _cmd_hurst)
    _add_kernel_flags(p)
    p.add_argument("--window-lo", type=float, default=1e-3)
    p.add_argument("--window-hi", type=float, default=1e-1)
    p.add_argument("--fit-n", type=int, default=0)
    p.add_argument("--t-min", type=float, default=None,
                   help="shortest time of the --fit-n fit; default 1e-5")

    return parser


def main(argv=None) -> int:
    output = None
    try:
        args = build_parser().parse_args(argv)
        output = args.output
        # a non-finite output raises NumericalError; warnings would add lines
        with np.errstate(all="ignore"):
            return EXIT_OK if args.run(args) else EXIT_FAIL
    except OSError as exc:
        if output is None or exc.filename != output:
            raise
        print(f"error: cannot write {output}: {exc.strerror}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
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
