"""CLI: flags, exit codes, artifact formats, determinism."""

import argparse
import ast
import gzip
import hashlib
import inspect
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import volterra_ito
import volterra_ito.paths
from volterra_ito import itoverify, kernels
from volterra_ito.approx import convergence_suite
from volterra_ito.bracket import cross_bracket, energy_function
from volterra_ito.cli import build_parser, main
from volterra_ito.itoverify import TestFunction
from volterra_ito.kernels import BrownianKernel, RiemannLiouvilleKernel, TimeGrid
from volterra_ito.paths import simulate_volterra
from volterra_ito.sandbox import sandbox_suite


def run_cli(args):
    return main(args)


# command lines whose output would be a NaN or an infinity: each exits 3
NON_FINITE_REPORTS = {
    "mean-cos-freq":
        "verify-mean --kernel brownian --grid-n 16 --phi cos --phi-freq 1e300",
    "mean-expsum-weight":
        "verify-mean --kernel expsum --weights 1e200 --rates 1 --grid-n 16 "
        "--phi square",
    "multi-expsum-weight":
        "verify-multi --kernel expsum --weights 1e200 --rates 1 --kernel2 brownian "
        "--grid-n 16 --paths 100",
    "path-cos-freq":
        "verify-path --kernel brownian --grid-n 16 --paths 100 --phi cos "
        "--phi-freq 1e200",
}
HUGE_EXPSUM = "--kernel expsum --weights 1e200 --rates 1"
NON_FINITE_OUTPUTS = {
    "bracket-json": f"bracket {HUGE_EXPSUM} --grid-n 2",
    "bracket-csv": f"bracket {HUGE_EXPSUM} --grid-n 2 --format csv",
    "bracket-text": f"bracket {HUGE_EXPSUM} --grid-n 2 --format text",
    "simulate-json": f"simulate {HUGE_EXPSUM} --grid-n 4 --paths 10",
    "hurst": f"hurst {HUGE_EXPSUM}",
}
# E[phi''(X_s)] lives below Gamma(t) 2^-64, where no panel split within
# budget resolves it
UNRESOLVED_STIELTJES = {
    "mean": "verify-mean --kernel brownian --grid-n 16 --phi cos --phi-freq 1e100",
    "path": "verify-path --kernel brownian --grid-n 16 --phi cos --phi-freq 1e100 "
            "--paths 100",
}


def _assert_one_numerical_error_line(err):
    assert err.startswith("numerical error:") and err.count("\n") == 1


def _run_python(args, **kwargs):
    """Run a fresh interpreter on ``args`` with this package importable."""
    src = str(Path(volterra_ito.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120, **kwargs)


def _run_program(argv, **kwargs):
    """Run ``python -m volterra_ito.cli`` on the argv string in a child."""
    return _run_python(["-m", "volterra_ito.cli", *argv.split()], **kwargs)


class TestBracket:
    def test_brownian_csv(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        code = run_cli([
            "bracket", "--kernel", "brownian", "--T", "1", "--grid-n", "4",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,gamma"
        gammas = [float(line.split(",")[1]) for line in lines[1:]]
        assert gammas == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_cross_bracket_csv(self, tmp_path):
        out = tmp_path / "cross.csv"
        code = run_cli([
            "bracket", "--kernel", "rl", "--hurst", "0.25", "--T", "1",
            "--kernel2", "brownian", "--grid-n", "8",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,gamma_12"
        assert float(lines[-1].split(",")[1]) == pytest.approx(0.9428090415820634)

    def test_json_embeds_config_and_version(self, tmp_path):
        out = tmp_path / "gamma.json"
        code = run_cli([
            "bracket", "--kernel", "brownian", "--grid-n", "4",
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["version"]
        assert doc["config"]["subcommand"] == "bracket"
        assert doc["config"]["kernel"] == {"kind": "brownian", "T": 1.0}
        assert "timestamp" not in doc


class TestErrors:
    @pytest.mark.parametrize("threads", ["-5", "0"])
    def test_non_positive_threads_flag(self, threads, capsys):
        code = run_cli(["verify-mean", "--kernel", "brownian", "--grid-n", "4",
                        "--threads", threads, "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "--threads" in err
        assert "Traceback" not in err

    def test_malformed_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text('{"kind":"rl","T":1.0}')  # missing hurst
        code = run_cli(["bracket", "--kernel-spec", str(spec)])
        assert code == 2
        assert "hurst" in capsys.readouterr().err

    def test_unknown_kind_in_spec(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text('{"kind":"sombrero","T":1.0}')
        code = run_cli(["bracket", "--kernel-spec", str(spec)])
        assert code == 2
        assert "sombrero" in capsys.readouterr().err

    def test_missing_kernel(self, capsys):
        code = run_cli(["verify-mean"])
        assert code == 2

    def test_invalid_hurst_value(self, capsys):
        code = run_cli(["bracket", "--kernel", "rl", "--hurst", "1.5"])
        assert code == 2

    def test_missing_spec_file(self, capsys):
        code = run_cli(["bracket", "--kernel-spec", "/no/such/file.json"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-path", "--kernel", "brownian", "--grid-n", "8", "--paths", "0"],
        ["verify-multi", "--kernel", "brownian", "--kernel2", "brownian",
         "--grid-n", "8", "--phi2d", "xy", "--paths", "0"],
        ["verify-mean", "--kernel", "brownian", "--grid-n", "8", "--paths", "-3"],
        ["verify-mean", "--kernel", "brownian", "--grid-n", "8", "--phi", "cos",
         "--quad-order", "0"],
        ["verify-mean", "--kernel", "brownian", "--grid-n", "8", "--phi", "cos",
         "--quad-order", "-1"],
        ["sandbox", "--cases", "0"],
        ["sandbox", "--seed", "-1"],
        # one path has no standard error: se = 0 made a certain FAIL
        ["verify-mean", "--kernel", "brownian", "--grid-n", "16", "--phi", "cos",
         "--paths", "1"],
        ["verify-path", "--kernel", "brownian", "--grid-n", "16", "--paths", "1"],
        ["verify-multi", "--kernel", "brownian", "--kernel2", "brownian",
         "--grid-n", "16", "--paths", "1"],
    ], ids=["path-paths-0", "multi-xy-paths-0", "mean-paths-negative",
            "quad-order-0", "quad-order-negative", "sandbox-cases-0",
            "sandbox-seed-negative", "mean-paths-1", "path-paths-1", "multi-paths-1"])
    def test_out_of_range_count_is_bad_input(self, argv, capsys):
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        ["--quad-order", "400"],
        ["--quad-order", "100000000"],
        ["--phi", "cos", "--phi-freq", "nan"],
        ["--phi", "cos", "--phi-freq", "inf"],
        ["--phi", "mollified", "--phi-cut", "nan"],
        ["--phi", "poly", "--phi-coeffs", "1,nan"],
    ], ids=["quad-order-400", "quad-order-1e8", "freq-nan", "freq-inf",
            "cut-nan", "coeffs-nan"])
    def test_bad_parameter_is_bad_input(self, extra, capsys):
        code = run_cli(["verify-mean", "--kernel", "brownian", "--grid-n", "16",
                        *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["bracket", "--kernel", "brownian", "--grid-n", "4",
         "--quad-order", "0", "--z", "nan"],
        ["simulate", "--kernel", "brownian", "--grid-n", "4",
         "--quad-order", "-5", "--z", "-1"],
        ["simulate", "--kernel", "brownian", "--grid-n", "4",
         "--quad-order", "-5"],
        ["approx", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "8",
         "--quad-order", "400"],
    ], ids=["bracket-both", "simulate-both", "simulate-order", "approx-order"])
    def test_unused_flag_bad_value_is_bad_input(self, argv, capsys):
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["4", "-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        "bracket --kernel brownian --grid-n 4",
        "simulate --kernel brownian --grid-n 4",
        "verify-mean --kernel brownian --grid-n 16",
        "verify-path --kernel brownian --grid-n 8",
        "verify-multi --kernel brownian --kernel2 brownian --grid-n 8",
        "verify-unique --kernel brownian --grid-n 8",
        "sandbox",
        "approx --kernel rl --hurst 0.25 --grid-n 8",
        "hurst --kernel rl --hurst 0.25",
    ], ids=lambda argv: argv.split()[0])
    def test_z_is_an_unknown_flag(self, argv, value, capsys):
        # every verdict judges at DEFAULT_Z: a wider band turned a FAIL into a PASS
        assert run_cli([*argv.split(), "--z", value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: --z {value}\n"

    @pytest.mark.parametrize("argv, flag", [
        ("bracket --kernel rl --hurst 0.3 --kernel-spec {spec}", "kernel"),
        ("bracket --kernel brownian --hurst 0.3", "hurst"),
        ("bracket --kernel rl --hurst 0.25 --weights 1 --rates 2", "weights"),
        ("bracket --kernel expsum --weights 1 --rates 1 --hurst 0.7", "hurst"),
        ("bracket --kernel-spec {spec} --hurst 0.3", "hurst"),
        ("bracket --kernel-spec {spec} --T 2", "T"),
        ("bracket --kernel brownian --kernel2 rl --hurst2 0.3 --weights2 1",
         "weights2"),
        ("bracket --kernel brownian --kernel2-spec {spec} --rates2 1", "rates2"),
        ("bracket --kernel brownian --hurst2 0.3", "kernel2"),
        ("verify-multi --kernel brownian --kernel2 expsum --weights2 1 --rates2 1 "
         "--hurst2 0.3 --paths 10", "hurst2"),
        ("verify-multi --kernel-spec {spec} --kernel2-spec {spec} --T 1 --paths 10",
         "T"),
    ], ids=["spec-kernel", "brownian-hurst", "rl-weights", "expsum-hurst",
            "spec-hurst", "spec-T", "rl2-weights2", "spec2-rates2",
            "hurst2-without-kernel2", "multi-expsum2-hurst2", "multi-specs-T"])
    def test_unread_kernel_flag_exits_2(self, argv, flag, tmp_path, capsys):
        # each ran and ignored the flag; the first ran Brownian motion
        spec = tmp_path / "bm.json"
        spec.write_text('{"kind":"brownian","T":1.0}')
        code = run_cli([*argv.format(spec=spec).split(), "--grid-n", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: field '{flag}': ") and err.count("\n") == 1

    def test_T_is_read_beside_a_spec_by_a_kernel_from_flags(self, tmp_path, capsys):
        spec = tmp_path / "bm2.json"
        spec.write_text('{"kind":"brownian","T":2.0}')
        assert run_cli(["bracket", "--kernel-spec", str(spec), "--kernel2", "brownian",
                        "--T", "2", "--grid-n", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2,2"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "2",
         "--format", "csv"],
        ["simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "2",
         "--format", "csv", "--compress"],
        ["simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "2"],
        ["verify-mean", "--kernel", "brownian", "--grid-n", "4"],
        ["bracket", "--kernel", "brownian", "--grid-n", "4", "--format", "csv"],
    ], ids=["simulate-csv", "simulate-gzip", "simulate-json", "verify-mean",
            "bracket-csv"])
    def test_unwritable_output_is_bad_input(self, argv, tmp_path, capsys):
        target = str(tmp_path / "missing" / "out.txt")
        code = run_cli([*argv, "--output", target])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", ["nan", "0"])
    def test_non_finite_or_zero_eps_is_bad_input(self, eps, capsys):
        # --eps 0 exited 0 with the plain mean identity's report
        code = run_cli(["verify-unique", "--kernel", "rl", "--hurst", "0.25",
                        "--grid-n", "16", "--phi", "cos", "--eps", eps])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: field 'eps':") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", list(NON_FINITE_REPORTS.values()),
                             ids=list(NON_FINITE_REPORTS))
    def test_non_finite_report_exits_3(self, argv, capsys):
        # each exited 1, with NaN in its report or an OverflowError traceback
        code = run_cli(argv.split())
        err = capsys.readouterr().err
        assert code == 3
        assert [line for line in err.splitlines()
                if line.startswith("numerical error:")] == [err.rstrip("\n")]

    @pytest.mark.parametrize("argv, message", [
        (NON_FINITE_REPORTS["mean-expsum-weight"],
         "the energy function Gamma(t) is not finite (estimate inf)"),
        (f"verify-path {HUGE_EXPSUM} --grid-n 16 --paths 100",
         "the energy function Gamma(t) is not finite (estimate inf)"),
        ("verify-mean --kernel brownian --grid-n 16 --phi poly --phi-coeffs 0,0,1e308",
         "the Ito correction of poly[0.0, 0.0, 1e+308] is not finite over "
         "[0, Gamma(t)]"),
    ], ids=["mean-gamma", "path-gamma", "mean-correction"])
    def test_non_finite_message_names_its_value(self, argv, message, capsys):
        # an infinite Gamma(t) was blamed on the correction, which printed
        # poly[np.float64(0.0), ...]
        code = run_cli(argv.split())
        err = capsys.readouterr().err
        assert code == 3
        _assert_one_numerical_error_line(err)
        assert err.startswith(f"numerical error: {message}")

    @pytest.mark.parametrize("argv", list(NON_FINITE_OUTPUTS.values()),
                             ids=list(NON_FINITE_OUTPUTS))
    def test_non_finite_output_exits_3(self, argv, capsys):
        # each printed Infinity, inf or NaN and exited 0
        code = run_cli(argv.split())
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        _assert_one_numerical_error_line(err)

    def test_non_finite_paths_write_no_csv(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        code = run_cli(f"simulate {HUGE_EXPSUM} --grid-n 4 --paths 10 "
                       f"--format csv --output {out}".split())
        assert code == 3
        assert not out.exists()
        _assert_one_numerical_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("argv", list(UNRESOLVED_STIELTJES.values()),
                             ids=list(UNRESOLVED_STIELTJES))
    def test_unresolved_stieltjes_integrand_exits_3(self, argv, capsys):
        # c = 1 against E cos(a X_1) = 0 was a FAIL (exit 1)
        code = run_cli(argv.split())
        err = capsys.readouterr().err
        assert code == 3
        _assert_one_numerical_error_line(err)
        assert "unresolved" in err

    @pytest.mark.parametrize("sub", [
        "verify-multi --paths 1000", "bracket"])
    def test_kernels_with_different_horizons_exit_2(self, sub, tmp_path, capsys):
        # verify-multi passed at t = 1, past the second kernel's horizon 0.5
        spec = tmp_path / "k2.json"
        spec.write_text('{"kind":"rl","hurst":0.25,"T":0.5}')
        code = run_cli(f"{sub} --kernel rl --hurst 0.25 --kernel2-spec {spec} "
                       "--grid-n 4".split())
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: kernels must share the horizon T\n"

    @pytest.mark.parametrize("argv", [
        *NON_FINITE_REPORTS.values(), *NON_FINITE_OUTPUTS.values(),
        *UNRESOLVED_STIELTJES.values(),
        NON_FINITE_REPORTS["multi-expsum-weight"] + " --threads 2"],
        ids=[*NON_FINITE_REPORTS, *NON_FINITE_OUTPUTS,
             *(f"stieltjes-{key}" for key in UNRESOLVED_STIELTJES),
             "multi-expsum-weight-threads-2"])
    def test_program_stderr_is_one_line(self, argv):
        # run as a program, numpy's RuntimeWarnings went to stderr first
        proc = _run_program(argv)
        assert proc.returncode == 3
        _assert_one_numerical_error_line(proc.stderr)

    @pytest.mark.parametrize("argv", [
        "simulate --kernel brownian --grid-n 30000 --paths 2",
        "simulate --sampler cholesky --kernel rl --hurst 0.25 --grid-n 20000 "
        "--paths 2",
    ], ids=["volterra", "cholesky"])
    def test_simulation_past_the_memory_cap_exits_2(self, argv):
        # both asked for a 30001 x 30000 weight or 20000 x 20000 Gram matrix
        # and died of a MemoryError; the child alone gets a 3 GB address space
        # so that such a run fails fast instead of paging
        limit = 3_000_000 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = _run_program(argv, preexec_fn=cap)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "budget" in proc.stderr

    def test_fits_alone_import_scipy_optimize(self, tmp_path):
        # scipy.optimize serves only the exp-sum fit, so a call that fits
        # nothing must not pay for importing it
        out = tmp_path / "approx.json"
        proc = _run_python(["-c", (
            "import sys\n"
            "import volterra_ito.cli as cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "code = cli.main(['approx', '--kernel', 'rl', '--hurst', '0.25',\n"
            "                 '--grid-n', '32', '--n-terms', '4,8', '--t-min', '1e-3',\n"
            f"                 '--output', {str(out)!r}])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "0 True"]
        assert json.loads(out.read_text())["approx"]["n_terms"] == [4, 8]

    @pytest.mark.parametrize("argv", [
        ["approx", "--kernel", "rl", "--hurst", "0.75", "--n-terms", "2,4,8,16",
         "--t-min", "1e-4"],
        ["hurst", "--kernel", "rl", "--hurst", "0.75", "--fit-n", "4"],
    ], ids=["approx", "hurst-fit-n"])
    def test_fit_of_increasing_kernel_is_bad_input(self, argv, capsys):
        # no nonnegative exp-sum approaches w^(H-1/2) for H > 1/2, so no term
        # count can pass
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: field 'hurst'") and err.count("\n") == 1
        assert "completely monotone" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, cond", [
        ("approx --kernel rl --hurst 0.25 --n-terms 8,16 --t-min 0.5", "(cond ~ "),
        # past 32 terms the first 32 columns' condition number is the bound
        ("approx --kernel rl --hurst 0.25 --n-terms 200 --t-min 1e-12", "(cond >= "),
        ("hurst --kernel rl --hurst 0.25 --fit-n 2000", "(cond >= "),
    ], ids=["approx-16", "approx-200", "hurst-fit-2000"])
    def test_numerical_failure_exit_code(self, argv, cond, capsys):
        # hopeless fit: condition estimate reported, exit 3
        assert run_cli(argv.split()) == 3
        out, err = capsys.readouterr()
        assert out == "" and cond in err
        _assert_one_numerical_error_line(err)


class TestKernelErrors:
    @pytest.mark.parametrize("argv, line", [
        (["bracket", "--kernel", "brownian", "--grid-n", "4", "--T", "inf"],
         "error: field 'T': horizon must be positive and finite\n"),
        (["bracket", "--kernel", "rl", "--hurst", "1.5"],
         "error: field 'hurst': must lie strictly inside (0, 1)\n"),
    ], ids=["T-inf", "hurst-1.5"])
    def test_flag_refusal_names_the_field(self, argv, line, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == line

    def test_unconvertible_spec_field_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        path.write_text('{"kind": "rl", "hurst": "abc", "T": 1.0}')
        assert main(["bracket", "--kernel-spec", str(path), "--grid-n", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed kernel spec: ")


class TestOrderedLists:
    @pytest.mark.parametrize("argv, field", [
        (["verify-path", "--kernel", "brownian", "--ladder", "64,16",
          "--paths", "2000"], "ladder"),
        (["verify-path", "--kernel", "brownian", "--ladder", "16,16",
          "--paths", "2000"], "ladder"),
        (["approx", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "16",
          "--n-terms", "4,2"], "n_terms"),
        (["approx", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "16",
          "--n-terms", "4,4"], "n_terms"),
    ], ids=["ladder-64-16", "ladder-16-16", "n-terms-4-2", "n-terms-4-4"])
    def test_unordered_list_is_bad_input(self, argv, field, capsys):
        # judging the coarsest grid or fewest terms as the last would FAIL correct code
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: field '{field}': ")

    def test_t_min_past_horizon_names_t_min(self, capsys):
        argv = ["approx", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "16",
                "--t-min", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: field 't_min': must lie strictly inside (0, T)\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["bracket", "--kernel", "brownian", "--grid-n", "4", "--paths", "-3",
         "--threads", "-2", "--t", "nan"],
        ["hurst", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "8"],
        ["verify-multi", "--kernel", "brownian", "--kernel2", "brownian",
         "--grid-n", "8", "--quad-order", "5"],
        ["approx", "--kernel", "rl", "--hurst", "0.25", "--t", "0.5"],
        ["bracket", "--kernel", "brownian", "--grid-n", "abc"],
        ["verify-mean", "--kernel", "brownian", "--grid-n", "4", "--format", "csv"],
        ["approx", "--kernel", "rl", "--hurst", "0.25", "--n-terms", "2.7,4.9"],
        ["verify-path", "--kernel", "brownian", "--grid-n", "64",
         "--ladder", "16.5,64"],
        ["approx", "--kernel", "rl", "--hurst", "0.25", "--n-terms", ""],
        ["frobnicate"],
        [],
        ["verify-path", "--kernel", "brownian", "--ladder", "8,16",
         "--grid-n", "999", "--paths", "100"],
        ["hurst", "--kernel", "rl", "--hurst", "0.25", "--t-min", "2"],
        ["verify-multi", "--kernel", "brownian", "--kernel2", "brownian",
         "--grid-n", "8", "--phi2d", "x2+y2"],
        ["simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "2",
         "--compress", "--format", "text"],
    ], ids=["unread-flags", "hurst-grid-n", "multi-quad-order",
            "no-abbreviation", "grid-n-abc", "mean-csv", "n-terms-fraction",
            "ladder-fraction", "n-terms-empty", "unknown-subcommand",
            "empty-argv", "ladder-with-grid-n", "hurst-t-min-without-fit-n",
            "phi2d-x2+y2", "compress-without-csv"])
    def test_parser_failure_exits_2(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and "usage:" not in err
        assert out == ""

    @pytest.mark.parametrize("sub", ["verify-mean", "verify-path", "verify-unique"])
    def test_quad_order_is_gone(self, sub, capsys):
        assert main([sub, "--kernel", "brownian", "--grid-n", "8",
                     "--quad-order", "32"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unrecognized arguments: --quad-order 32\n"

    @pytest.mark.parametrize("flag", [
        ["--paths", "4096"], ["--seed", "1"], ["--threads", "2"],
    ], ids=["paths", "seed", "threads"])
    def test_verify_unique_takes_no_monte_carlo_flags(self, flag, capsys):
        # its Monte Carlo route was verify-mean --paths N over again
        assert main(["verify-unique", "--kernel", "brownian", "--grid-n", "8",
                     *flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"

    @pytest.mark.parametrize("flags, field", [
        (["--seed", "9"], "seed"),
        (["--threads", "2"], "threads"),
        (["--paths", "0", "--seed", "9", "--threads", "2"], "seed"),
    ], ids=["seed", "threads", "both"])
    def test_verify_mean_draw_flags_need_paths(self, flags, field, capsys):
        # at --paths 0 no path is drawn: the flags changed only the echo
        assert main(["verify-mean", "--kernel", "rl", "--hurst", "0.25",
                     "--grid-n", "64", "--phi", "cos", *flags]) == 2
        out, err = capsys.readouterr()
        assert err == (f"error: field '{field}': --{field} only applies with "
                       "--paths > 0\n")
        assert out == ""

    def test_verify_unique_ignores_the_thread_variable(self, monkeypatch, capsys):
        # it read VOLTERRA_ITO_THREADS, and a bad value exited 2
        monkeypatch.setenv("VOLTERRA_ITO_THREADS", "0")
        assert main(["verify-unique", "--kernel", "brownian", "--grid-n", "8",
                     "--phi", "cos", "--no-timestamp"]) == 0

    @pytest.mark.parametrize("argv", [["--version"], ["bracket", "--help"]])
    def test_help_and_version_still_exit(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


class TestNonFiniteHorizon:
    def _assert_refused(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "field 'T'" in err
        assert caught == []

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_flag(self, horizon, capsys):
        self._assert_refused(["bracket", "--kernel", "brownian", "--grid-n", "4",
                              "--T", horizon], capsys)

    @pytest.mark.parametrize("spec", [
        '{"kind":"brownian","T":NaN}',
        '{"kind":"rl","hurst":0.25,"T":Infinity}',
        '{"kind":"expsum","weights":[1.0],"rates":[1.0],"T":NaN}',
    ], ids=["brownian", "rl", "expsum"])
    def test_spec_file(self, spec, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        path.write_text(spec)
        self._assert_refused(["bracket", "--kernel-spec", str(path),
                              "--grid-n", "4"], capsys)


class TestConfigEcho:
    OUTPUT = {"subcommand", "format", "no_timestamp"}
    KERNEL_GRID = OUTPUT | {"kernel", "grid_n", "grid_kind"}
    DRAWS = {"paths", "seed"}
    CHECK = {"t", "threads"}
    PHI = {"phi"}
    rl = ["--kernel", "rl", "--hurst", "0.25"]

    @pytest.mark.parametrize("argv, keys", [
        (["bracket", *rl, "--grid-n", "4"], KERNEL_GRID | {"kernel2"}),
        (["simulate", *rl, "--grid-n", "4", "--paths", "2"],
         KERNEL_GRID | DRAWS | {"sampler", "compress"}),
        (["verify-mean", *rl, "--grid-n", "8"], KERNEL_GRID | DRAWS | CHECK | PHI),
        (["verify-path", *rl, "--grid-n", "8", "--paths", "64"],
         KERNEL_GRID | DRAWS | CHECK | PHI | {"ladder"}),
        (["verify-unique", *rl, "--grid-n", "16"], KERNEL_GRID | PHI | {"t", "eps"}),
        (["verify-multi", *rl, "--kernel2", "brownian", "--grid-n", "8",
          "--paths", "64"], KERNEL_GRID | DRAWS | CHECK | {"kernel2", "phi2d"}),
        (["sandbox", "--cases", "2"], OUTPUT | {"cases", "seed"}),
        (["approx", *rl, "--grid-n", "16", "--n-terms", "2,4"],
         KERNEL_GRID | {"n_terms", "t_min"}),
        (["hurst", *rl], OUTPUT | {"kernel", "window_lo", "window_hi", "fit_n",
                                   "t_min"}),
    ], ids=["bracket", "simulate", "verify-mean", "verify-path", "verify-unique",
            "verify-multi", "sandbox", "approx", "hurst"])
    def test_keys_are_the_subcommands_own(self, argv, keys, tmp_path):
        out = tmp_path / "run.json"
        assert main([*argv, "--no-timestamp", "--output", str(out)]) in (0, 1)
        assert set(json.loads(out.read_text())["config"]) == keys

    def test_resolved_values(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["verify-mean", "--kernel", "brownian", "--grid-n", "8",
                     "--phi", "cos", "--phi-freq", "2", "--paths", "200",
                     "--threads", "3", "--no-timestamp", "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["kernel"] == {"kind": "brownian", "T": 1.0}
        assert config["phi"] == {"family": "cosine", "freq": 2.0}
        assert config["threads"] == 3
        assert config["t"] is None

    @pytest.mark.parametrize("paths", ["0", "200"])
    def test_verify_mean_draw_defaults(self, paths, tmp_path):
        # --seed and --threads, refused at --paths 0, echo 0 and 1 when not given
        out = tmp_path / "run.json"
        assert main(["verify-mean", "--kernel", "brownian", "--grid-n", "8",
                     "--phi", "cos", "--paths", paths, "--no-timestamp",
                     "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert [config[key] for key in ("paths", "seed", "threads")] == [int(paths), 0, 1]


# the three Monte Carlo subcommands, each at a path count that spans two blocks
MONTE_CARLO = {
    "verify-mean": "verify-mean --kernel rl --hurst 0.25 --grid-n 16 --phi cos "
                   "--paths 5000",
    "verify-path": "verify-path --kernel rl --hurst 0.25 --grid-n 16 --paths 5000",
    "verify-multi": "verify-multi --kernel rl --hurst 0.25 --kernel2 brownian "
                    "--grid-n 16 --paths 5000",
}


class TestEnvironment:
    @pytest.mark.parametrize("sub", MONTE_CARLO)
    def test_thread_variable_changes_nothing(self, sub, tmp_path, monkeypatch):
        # --threads took its default from VOLTERRA_ITO_THREADS: abc and 0
        # exited 2, and 3 ran three workers and echoed them in config
        def run(value):
            if value is None:
                monkeypatch.delenv("VOLTERRA_ITO_THREADS", raising=False)
            else:
                monkeypatch.setenv("VOLTERRA_ITO_THREADS", value)
            out = tmp_path / f"{value}.json"
            code = main([*MONTE_CARLO[sub].split(), "--no-timestamp",
                         "--output", str(out)])
            return code, out.read_bytes()

        unset = run(None)
        assert unset[0] == 0 and json.loads(unset[1])["config"]["threads"] == 1
        for value in ("abc", "0", "3"):
            assert run(value) == unset

    def test_src_reads_no_environment(self):
        # a run is fully determined by its parsed flags
        src = Path(volterra_ito.__file__).resolve().parent
        reads = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = ([node.attr] if isinstance(node, ast.Attribute)
                         else [a.name for a in node.names]
                         if isinstance(node, ast.ImportFrom) else [])
                reads += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name in {"environ", "environb", "getenv", "getenvb"}]
        assert reads == []


class TestSandboxSeed:
    @pytest.mark.parametrize("argv, seed", [
        (["--seed", "0"], 0), ([], 20240801),
    ], ids=["zero", "default"])
    def test_runs_the_seed_it_echoes(self, argv, seed, tmp_path):
        out = tmp_path / "sandbox.json"
        assert main(["sandbox", "--cases", "3", *argv, "--no-timestamp",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == seed
        want = json.loads(json.dumps(sandbox_suite(cases=3, seed=seed)))
        assert doc["sandbox"] == want


def _readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("volterra-ito ")]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) >= 9
    for argv in examples:
        build_parser().parse_args(argv)


def _parsers(parser):
    """``parser`` and, depth first, every subcommand's parser."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
    # not at import: a one-shot process pays for it in its one main() call
    proc = _run_python(["-c", "from volterra_ito import cli; "
                              "print(cli.build_parser.cache_info().currsize)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_parser_defaults_are_immutable():
    # every main() call shares one parser, so a default a run could change
    # in place would leak into the next run
    for parser in _parsers(build_parser()):
        defaults = [(a.dest, a.default) for a in parser._actions]
        for dest, default in defaults + list(parser._defaults.items()):
            assert not isinstance(default, (list, dict, set)), (parser.prog, dest)


def test_shared_parser_runs_like_a_fresh_one(tmp_path, monkeypatch, capsys):
    # each README example after a usage error on the shared parser, then on
    # a parser built for it alone: exit code, stdout, stderr and any file
    # written (simulate's --output) are the same
    monkeypatch.chdir(tmp_path)

    def run(argv):
        code = main([*argv, "--no-timestamp"])
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return code, capsys.readouterr(), written

    for argv in _readme_cli_examples():
        assert main(["bracket", "--kernel", "brownian", "--grid-n", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: argument --grid-n")
        shared = run(argv)
        build_parser.cache_clear()
        assert run(argv) == shared, argv
        assert shared[0] == 0, argv


def _readme_cli_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


_FLAG = r"`(--[\w-]+)`(?: \((\w+)\))?"  # a flag and the default after it, if any


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    check = parser.parse_args(["verify-mean"])
    assert check.phi_freq == inspect.signature(TestFunction.cosine).parameters[
        "freq"].default
    assert check.phi_cut == inspect.signature(TestFunction.mollified_square).parameters[
        "cut"].default
    sandbox = parser.parse_args(["sandbox"])
    for name, param in inspect.signature(sandbox_suite).parameters.items():
        assert getattr(sandbox, name) == param.default, name


def test_readme_flag_tables_match_parser():
    section = _readme_cli_section()
    groups = {
        name: re.findall(r"`(--[\w-]+)`", body)
        for name, body in re.findall(r"^- (\w+)[^:]*: (.*?)(?=\n- |\n\n)", section,
                                     re.M | re.S)
    }
    rows = re.findall(r"^\| `([\w-]+)` \|(.*?)\|(.*?)\|(.*?)\|$", section, re.M)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(name for name, *_ in rows) == sorted(subparsers)
    for name, group_cell, own_cell, format_cell in rows:
        actions = {s: a for a in subparsers[name]._actions for s in a.option_strings}
        want = set(groups["output"])
        defaults = {}
        for group in filter(None, (g.strip() for g in group_cell.split(","))):
            group, _, paths = group.partition(" (")
            want.update(groups[group])
            if paths:
                defaults["--paths"] = paths.rstrip(")")
        for flag, default in re.findall(_FLAG, own_cell):
            want.add(flag)
            if default:
                defaults[flag] = default
        assert set(actions) - {"-h", "--help"} == want, name
        for flag, default in defaults.items():
            assert str(actions[flag].default) == default, (name, flag)
        formats = [f.strip() for f in format_cell.split(",")]
        assert list(actions["--format"].choices) == formats, name


@pytest.mark.parametrize("kernel", [
    ["brownian"], ["rl", "--hurst", "0.25"], ["rl", "--hurst", "0.75"],
], ids=["brownian", "rl025", "rl075"])
@pytest.mark.parametrize("grid_kind", ["uniform", "energy"])
@pytest.mark.parametrize("cut", ["1", "2", "5"])
def test_mollified_mean_identity_closes_at_small_cuts(kernel, grid_kind, cut, capsys):
    # the cutoff band is inside the Gaussian's reach for every cut here
    assert main(["verify-mean", "--kernel", *kernel, "--grid-n", "256",
                 "--grid-kind", grid_kind, "--phi", "mollified", "--phi-cut", cut,
                 "--no-timestamp"]) == 0


# passing and failing runs of the identity checks; each failing run is a
# passing one, or a correct answer, with a seeded defect (DEFECTS) that the
# check must see past 4 se + bias_bound
IDENTITY_RUNS = {
    "mean-quadrature-pass": "verify-mean --kernel rl --hurst 0.75 --phi mollified "
                            "--phi-cut 0.5 --grid-n 64",
    # a coarse grid outside the asymptotic range: was a false FAIL
    "mean-quadrature-coarse-pass": "verify-mean --kernel rl --hurst 0.75 "
                                   "--phi mollified --phi-cut 0.5 --grid-n 16",
    "mean-mc-pass": "verify-mean --kernel rl --hurst 0.25 --phi cos --grid-n 64 "
                    "--paths 2000 --seed 1",
    "mean-mc-fail": "verify-mean --kernel rl --hurst 0.25 --phi cos --grid-n 64 "
                    "--paths 2000 --seed 1",
    # a polynomial's constant set the 1e-12 max(1, |c|) floor to 1.0: a PASS
    "mean-poly-constant-fail": "verify-mean --kernel rl --hurst 0.25 --grid-n 64 "
                               "--phi poly --phi-coeffs 1e12,0,1",
    "path-pass": "verify-path --kernel rl --hurst 0.25 --grid-n 64 --phi square "
                 "--paths 4096 --seed 1",
    "path-fail": "verify-path --kernel rl --hurst 0.25 --grid-n 64 --phi square "
                 "--paths 4096 --seed 1",
    "multi-pass": "verify-multi --kernel rl --hurst 0.25 --kernel2 brownian "
                  "--grid-n 64 --paths 2000 --seed 1",
    "multi-fail": "verify-multi --kernel rl --hurst 0.25 --kernel2 brownian "
                  "--grid-n 64 --paths 2000 --seed 1",
    "unique-pass": "verify-unique --kernel rl --hurst 0.25 --grid-kind energy "
                   "--phi mollified --grid-n 256",
}


_CORRECTION, _GRAM_FACTOR = itoverify._correction, itoverify._gram_factor


def _correction_off_by_half(phi, gamma_t):
    c, bound = _CORRECTION(phi, gamma_t)
    return c + 0.5, bound


def _gram_factor_too_wide(rows):
    return 1.25 * _GRAM_FACTOR(rows)


DEFECTS = {
    "mean-mc-fail": ("_correction", _correction_off_by_half),
    "mean-poly-constant-fail": ("_correction", _correction_off_by_half),
    "path-fail": ("_correction", _correction_off_by_half),
    # verify-multi's bias bound |w1 w2 - R12| absorbs a defect in the weights
    "multi-fail": ("_gram_factor", _gram_factor_too_wide),
}


@pytest.mark.parametrize("name", IDENTITY_RUNS)
def test_identity_verdict_follows_the_printed_numbers(name, monkeypatch, capsys):
    if name in DEFECTS:
        monkeypatch.setattr(itoverify, *DEFECTS[name])
    code = run_cli([*IDENTITY_RUNS[name].split(), "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    closeness = (abs(rep["estimate"] - rep["reference"])
                 <= rep["z"] * rep["se"] + rep["bias_bound"])
    assert rep["z"] == itoverify.DEFAULT_Z
    assert rep["pass"] is closeness
    assert code == (0 if closeness else 1)
    assert code == (1 if name.endswith("fail") else 0)


class TestVerifySubcommands:
    def test_verify_mean_pass(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "verify-mean", "--kernel", "rl", "--hurst", "0.5", "--grid-n", "128",
            "--phi", "cos", "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        rep = doc["reports"][0]
        assert rep["pass"] is True
        assert set(rep) == {
            "identity", "estimate", "reference", "se", "bias_bound",
            "grid_n", "paths", "seed", "pass", "z",
        }

    @pytest.mark.parametrize("argv", [
        "--kernel brownian --grid-n 1024 --paths 8192 --phi cos --seed 42",
        "--kernel rl --hurst 0.75 --grid-n 256 --paths 4096 --phi square --seed 42",
    ], ids=["brownian-cos", "rl075-square"])
    def test_verify_path_consistent_identity_passes(self, argv, capsys):
        # both exited 1 while the corrector was (1/2) int phi''(X_s) dGamma
        # and the bias bound a mesh-power heuristic
        assert run_cli(["verify-path", *argv.split(), "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["pass"] is True

    @pytest.mark.parametrize("argv", [
        "verify-mean --kernel rl --hurst 0.25 --phi cos --paths 0",
        "verify-mean --kernel rl --hurst 0.1 --phi cos --grid-n 256",
        "verify-mean --kernel rl --hurst 0.05 --phi cos --phi-freq 10 --grid-n 64",
        "verify-mean --kernel rl --hurst 0.05 --phi mollified --phi-cut 0.1 "
            "--grid-n 64 --grid-kind energy",
        "verify-mean --kernel rl --hurst 0.1 --phi mollified --phi-cut 0.25 "
            "--grid-n 8 --grid-kind energy",
        "verify-mean --kernel rl --hurst 0.25 --phi mollified --phi-cut 0.25 "
            "--grid-n 32",
        "verify-mean --kernel rl --hurst 0.25 --phi cos --phi-freq 1000 "
            "--grid-kind energy --grid-n 1024",
    ], ids=["mean-rl025", "mean-rl010", "mean-rl005-cos10",
            "mean-rl005-cut0.1-energy", "mean-rl010-cut0.25-energy-n8",
            "mean-rl025-cut0.25-n32", "mean-rl025-cos1000-energy"])
    def test_uniform_grid_stieltjes_bias_holds(self, argv, capsys):
        # the first two exited 1 while the bias bound was the stride-2 gap
        # alone, the next four while it came from strides 1, 2 and 4 of the
        # grid's midpoint rule; the last exited 3 there
        assert run_cli([*argv.split(), "--no-timestamp"]) == 0

    def test_unresolvable_covariance_exits_3(self, tmp_path, capsys):
        # the table's covariance at T = 1e-300 is closed (the quadrature once
        # refused it: lags that underflow held 2.23e-08 of it), but the
        # squares of the Monte Carlo deviations underflow, and an SE of 0
        # judged the run: a false FAIL at seeds 0, 7 and 42
        spec = tmp_path / "table.json"
        spec.write_text('{"kind":"table","times":[0,5e-301,1e-300],'
                        '"values":[[0,0,0],[1,0,0],[1,1,0]]}')
        table = kernels.kernel_from_json(spec.read_text())
        assert kernels.covariance(table, table, 1e-300, 1e-300) == pytest.approx(
            2.0 / 3.0 * 1e-300, rel=1e-15)
        code = run_cli(["verify-multi", "--kernel-spec", str(spec),
                        "--kernel2-spec", str(spec), "--grid-n", "4",
                        "--paths", "100"])
        err = capsys.readouterr().err
        assert code == 3
        assert "the Monte Carlo standard error underflows" in err
        assert "Traceback" not in err

    def test_underflowing_monte_carlo_spread_exits_3(self, capsys):
        # X_T^2 ~ 1e-300 at T = 1e-300: the squared deviations underflow to
        # 0, and an SE of 0 on the 1e-12 rounding floor passed vacuously
        code = run_cli(["verify-mean", "--kernel", "brownian", "--T", "1e-300",
                        "--phi", "square", "--grid-n", "4", "--paths", "1000",
                        "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 3
        _assert_one_numerical_error_line(err)
        assert "the Monte Carlo standard error underflows" in err

    def test_constant_sample_whose_mean_rounds_exits_0(self, capsys):
        # phi = 1e-300: the mean of 100 copies is an ulp off 1e-300 and the
        # deviations' squares underflow, but they are rounding, not spread
        code = run_cli(["verify-mean", "--kernel", "brownian", "--phi", "poly",
                        "--phi-coeffs", "1e-300", "--paths", "100",
                        "--grid-n", "4", "--no-timestamp"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["se"] == 0.0

    def test_tiny_horizon_rl_pair_is_closed(self, tmp_path):
        # this pair once reached the quadrature's underflow refusal
        out = tmp_path / "rep.json"
        code = run_cli(["verify-multi", "--kernel", "rl", "--hurst", "0.02",
                        "--kernel2", "rl", "--hurst2", "0.03", "--T", "1e-300",
                        "--grid-n", "4", "--paths", "100", "--output", str(out)])
        assert code == 0
        want = 2.0 * math.sqrt(0.02 * 0.03) / 0.05 * 1e-300 ** 0.05
        ref = json.loads(out.read_text())["reports"][0]["reference"]
        assert ref == pytest.approx(want, rel=1e-15)  # 9.80e-16

    @pytest.mark.parametrize("kernel", [
        "--kernel rl --hurst 0.001 --grid-n 1024",
        "--kernel expsum --weights 0 --rates 1",
    ], ids=["rl-nodes-underflow", "expsum-zero-energy"])
    def test_energy_grid_refusal_names_the_energy_function(self, kernel, capsys):
        code = run_cli(["verify-mean", *kernel.split(), "--grid-kind", "energy"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: the energy function")
        assert err.endswith("use --grid-kind uniform\n")

    def test_verify_path_ladder(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "verify-path", "--kernel", "brownian",
            "--ladder", "16,64", "--paths", "4000", "--phi", "square",
            "--seed", "42", "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["grid_n"] == 64
        assert rep["pass"] is True

    def test_verify_unique(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "verify-unique", "--kernel", "rl", "--hurst", "0.25",
            "--grid-n", "256", "--grid-kind", "energy", "--phi", "mollified",
            "--eps", "0.01", "--output", str(out), "--no-timestamp",
        ])
        assert code == 0

    def test_verify_unique_polynomial_constant_cancels(self, capsys):
        # exited 1: the constant 1e12 set the bias floor 1e-12 max(1, |c|) to
        # 1.0, above the 0.01 residual it cancels out of
        code = run_cli(["verify-unique", "--kernel", "rl", "--hurst", "0.25",
                        "--phi", "poly", "--phi-coeffs", "1e12,0,1", "--eps", "0.01",
                        "--no-timestamp"])
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert code == 0
        assert rep["bias_bound"] < 1e-11

    def test_verify_multi(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_cli([
            "verify-multi", "--kernel", "rl", "--hurst", "0.25",
            "--kernel2", "brownian", "--grid-n", "128", "--paths", "5000",
            "--phi2d", "xy", "--seed", "3", "--output", str(out),
            "--no-timestamp",
        ])
        assert code == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["reference"] == pytest.approx(0.9428090415820634, rel=1e-9)


class TestSandboxCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "sandbox.json"
        code = run_cli([
            "sandbox", "--cases", "25", "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sandbox"]["pass"] is True
        assert doc["sandbox"]["adjointness_max"] <= 1e-12


class TestApproxCommand:
    def test_csv(self, tmp_path):
        out = tmp_path / "approx.csv"
        code = run_cli([
            "approx", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "128",
            "--n-terms", "2,4,8", "--t-min", "1e-4",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,l2_err,bracket_sup_err"
        assert len(lines) == 4


class TestHurstCommand:
    def test_closed_form(self, tmp_path):
        out = tmp_path / "hurst.json"
        code = run_cli([
            "hurst", "--kernel", "rl", "--hurst", "0.25",
            "--window-lo", "1e-3", "--window-hi", "1e-1",
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["hurst"]["estimate"] == pytest.approx(0.25, abs=1e-6)


class TestSimulate:
    def test_csv_dump(self, tmp_path):
        out = tmp_path / "paths.csv"
        code = run_cli([
            "simulate", "--kernel", "brownian", "--grid-n", "4",
            "--paths", "3", "--seed", "4", "--format", "csv",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,t,X"
        assert len(lines) == 1 + 3 * 5

    def test_compressed_dump(self, tmp_path):
        out = tmp_path / "paths.csv.gz"
        code = run_cli([
            "simulate", "--kernel", "brownian", "--grid-n", "4",
            "--paths", "2", "--seed", "4", "--format", "csv", "--compress",
            "--output", str(out),
        ])
        assert code == 0
        with gzip.open(out, "rt") as fh:
            assert fh.readline().strip() == "path,t,X"

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "paths.csv"
        assert run_cli([
            "simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "3",
            "--seed", "2", "--format", "csv", "--output", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path,t,X"
        assert len(lines) == 1 + 3 * 5
        row = lines[1].split(",")
        assert row[0] == "0" and float(row[1]) == 0.0 and float(row[2]) == 0.0
        x = simulate_volterra(BrownianKernel(), TimeGrid.uniform(4, 1.0), 3, seed=2)
        dumped = [float(line.split(",")[2]) for line in lines[1:]]
        assert np.array_equal(np.reshape(dumped, x.shape), x)

    def test_gzip(self, tmp_path):
        plain, packed = tmp_path / "paths.csv", tmp_path / "paths.csv.gz"
        argv = ["simulate", "--kernel", "brownian", "--grid-n", "4", "--paths", "2",
                "--seed", "2", "--format", "csv"]
        assert run_cli(argv + ["--output", str(plain)]) == 0
        assert run_cli(argv + ["--compress", "--output", str(packed)]) == 0
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()

    def test_json_summary(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run_cli([
            "simulate", "--kernel", "rl", "--hurst", "0.25", "--grid-n", "16",
            "--paths", "2000", "--seed", "4", "--sampler", "cholesky",
            "--output", str(out), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["simulate"]["var_XT"] - 1.0) < 0.15


    # sha256 of the payload without ``config`` (JSON) and of the whole file (CSV)
    @pytest.mark.parametrize("sampler, json_sha, csv_sha", [
        ("volterra",
         "0a45157d3748ff2ff9fc3e475a1e3af6536528b18acb18902c6b975e639d9522",
         "01b9ddad646af75a276515a87c294a8b03df86082c9ef4796619f1ff8c4f37a6"),
        ("cholesky",
         "932c0b4492889fc5ef9911be9c7544b32e7d854f3afd45433744d87b5ea0a57c",
         "50f8002f3d11842b760d23f1a0329b667653268d4164bbd13bd0b27715e4e577"),
    ], ids=["volterra", "cholesky"])
    def test_output_bytes_pinned(self, sampler, json_sha, csv_sha, tmp_path):
        base = ["simulate", "--sampler", sampler, "--kernel", "rl", "--hurst", "0.25",
                "--seed", "4"]
        out = tmp_path / "sim.json"
        assert run_cli(base + ["--grid-n", "16", "--paths", "200", "--no-timestamp",
                               "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        del doc["config"]
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == json_sha
        out = tmp_path / "paths.csv"
        assert run_cli(base + ["--grid-n", "4", "--paths", "3", "--format", "csv",
                               "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


class TestDeterminism:
    def test_byte_identical_json(self, tmp_path):
        args = [
            "verify-mean", "--kernel", "rl", "--hurst", "0.25",
            "--grid-n", "128", "--grid-kind", "energy", "--phi", "cos",
            "--paths", "2000", "--seed", "9", "--no-timestamp",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(args + ["--output", str(out1)]) == 0
        assert run_cli(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        base = [
            "verify-path", "--kernel", "brownian", "--grid-n", "32",
            "--paths", "6000", "--phi", "square", "--seed", "2",
            "--no-timestamp",
        ]
        out1 = tmp_path / "t1.json"
        out2 = tmp_path / "t4.json"
        assert run_cli(base + ["--threads", "1", "--output", str(out1)]) == 0
        assert run_cli(base + ["--threads", "4", "--output", str(out2)]) == 0
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        assert d1["reports"] == d2["reports"]

    # 8209 paths: two full blocks and a ragged one
    @pytest.mark.parametrize("argv", [
        "verify-mean --kernel rl --hurst 0.25 --grid-n 64 --phi cos",
        "verify-multi --kernel rl --hurst 0.25 --kernel2 brownian --grid-n 64",
    ], ids=["mean", "multi"])
    def test_terminal_threads_do_not_change_output(self, argv, tmp_path):
        base = [*argv.split(), "--paths", "8209", "--seed", "2", "--no-timestamp"]
        out1 = tmp_path / "t1.json"
        out3 = tmp_path / "t3.json"
        assert run_cli(base + ["--threads", "1", "--output", str(out1)]) == 0
        assert run_cli(base + ["--threads", "3", "--output", str(out3)]) == 0
        reports = [json.dumps(json.loads(out.read_text())["reports"])
                   for out in (out1, out3)]
        assert reports[0] == reports[1]


RL25 = RiemannLiouvilleKernel(hurst=0.25)


def _bracket_rows():
    grid = TimeGrid.uniform(4, 1.0)
    ef = energy_function(BrownianKernel(), grid)
    return ["t", "gamma"], list(zip(grid.times, ef.values))


def _cross_bracket_rows():
    grid = TimeGrid.uniform(8, 1.0)
    ef = cross_bracket(RL25, BrownianKernel(), grid)
    return ["t", "gamma_12"], list(zip(grid.times, ef.values))


def _approx_rows():
    rep = convergence_suite(RL25, [2, 4], TimeGrid.uniform(32, 1.0), t_min=1e-3)
    return (["n", "l2_err", "bracket_sup_err"],
            list(zip(rep.n_terms, rep.l2_errors, rep.bracket_sup_errors)))


def _path_rows():
    grid = TimeGrid.uniform(4, 1.0)
    x = simulate_volterra(RL25, grid, 3, seed=4)
    return ["path", "t", "X"], [(p, t, x[p, i]) for p in range(3)
                                for i, t in enumerate(grid.times)]


class TestCsvRows:
    """Every CSV row is the .17g text of the library's numbers, integers as
    integers; a path dump is path-major."""

    @pytest.mark.parametrize("argv, expected", [
        ("bracket --kernel brownian --grid-n 4", _bracket_rows),
        ("bracket --kernel rl --hurst 0.25 --kernel2 brownian --grid-n 8",
         _cross_bracket_rows),
        ("approx --kernel rl --hurst 0.25 --n-terms 2,4 --t-min 1e-3 --grid-n 32",
         _approx_rows),
        ("simulate --kernel rl --hurst 0.25 --grid-n 4 --paths 3 --seed 4",
         _path_rows),
    ], ids=["bracket", "cross-bracket", "approx", "simulate"])
    def test_rows_are_the_library_arrays(self, argv, expected, tmp_path):
        out = tmp_path / "out.csv"
        assert main([*argv.split(), "--format", "csv", "--output", str(out)]) in (0, 1)
        header, rows = expected()
        want = [",".join(header)] + [
            ",".join(str(x) if isinstance(x, int) else f"{x:.17g}" for x in row)
            for row in rows]
        assert out.read_bytes().decode("utf-8").split("\r\n") == want + [""]


def test_only_the_cli_imports_csv_or_gzip():
    # the CLI owns every output format; paths.py had its own CSV dump
    package = Path(volterra_ito.__file__).resolve().parent
    importers = set()
    for module in package.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module}
            else:
                continue
            if names & {"csv", "gzip"}:
                importers.add(module.name)
    assert importers == {"cli.py"}


@pytest.mark.parametrize("spelling", ["cosine", "mollified_square"])
def test_phi_takes_one_spelling_per_family(spelling, capsys):
    code = main(["verify-mean", "--kernel", "brownian", "--grid-n", "4",
                 "--phi", spelling])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: argument --phi: invalid choice")


def _brownian_table_spec(path, n_cells):
    """Brownian motion tabulated on n_cells uniform cells: 1 below the diagonal."""
    times = np.linspace(0.0, 1.0, n_cells + 1)
    values = np.tril(np.ones((n_cells + 1, n_cells + 1)), -1)
    path.write_text(json.dumps({"kind": "table", "times": times.tolist(),
                                "values": values.tolist()}))
    return str(path)


class TestTableKernels:
    """A table's knots are panel edges of the covariance quadrature; a knot
    inside a panel stalled the rule just above its 1e-9 tolerance (exit 3)."""

    def test_cholesky_oracle(self, tmp_path):
        spec = _brownian_table_spec(tmp_path / "bm10.json", 10)
        out = tmp_path / "sim.json"
        assert main(["simulate", "--sampler", "cholesky", "--kernel-spec", spec,
                     "--grid-n", "10", "--paths", "10", "--output", str(out)]) == 0

    @pytest.mark.parametrize("hurst", ["0.3", "0.45", "0.7"])
    def test_cross_bracket_with_a_power_law(self, hurst, tmp_path):
        spec = _brownian_table_spec(tmp_path / "step8.json", 8)
        out = tmp_path / "cross.json"
        assert main(["bracket", "--kernel-spec", spec, "--kernel2", "rl",
                     "--hurst2", hurst, "--grid-n", "8", "--output", str(out)]) == 0


class TestRefusedBeforeWork:
    """Inputs past what the program can index or hold exit 2 on one line,
    before anything is drawn or allocated."""

    @pytest.mark.parametrize("sub", MONTE_CARLO)
    def test_path_count_past_the_streams(self, sub, monkeypatch, capsys):
        # the refusal came with the last block's streams, after 2^20 blocks
        def drawn(*args):
            raise AssertionError("a block of normals was drawn")

        monkeypatch.setattr(volterra_ito.paths, "_chunks", drawn)
        argv = MONTE_CARLO[sub].replace("5000", "4294967297").split()
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 1.0
        assert err == "error: stream indices [0, 4294967297) must lie in [0, 2^32)\n"

    @pytest.mark.parametrize("argv, message", [
        ("bracket --kernel brownian --grid-n 99999999999999999999999",
         "2^32 cells"),
        ("verify-mean --kernel brownian --grid-n 99999999999999999999999",
         "2^32 cells"),
        ("bracket --kernel brownian --grid-n 100000000000", "2^32 cells"),
        ("bracket --kernel rl --hurst 0.25 --grid-kind energy "
         "--grid-n 4294967297", "2^32 cells"),
        ("hurst --kernel rl --hurst 0.25 --fit-n 2000000", "n_terms"),
        ("approx --kernel rl --hurst 0.25 --grid-n 8 --n-terms 2,2001",
         "n_terms"),
    ], ids=["bracket-1e22-cells", "mean-1e22-cells", "bracket-1e11-cells",
            "energy-grid-2^32+1-cells", "hurst-2e6-terms", "approx-2001-terms"])
    def test_oversized_input(self, argv, message):
        # numpy refused the first two with a ValueError, and the others ran
        # out of memory: each exited 1 with a traceback. The child gets a
        # 3 GB address space, so an allocation fails at once instead of
        # being overcommitted
        limit = 3_000_000 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = _run_program(argv, preexec_fn=cap)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert message in proc.stderr and "out of memory" not in proc.stderr

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8.00 GiB for an array with shape "
                     "(1073741825,) and data type float64"),
         "error: out of memory: Unable to allocate 8.00 GiB for an array with "
         "shape (1073741825,) and data type float64\n"),
        (MemoryError(), "error: out of memory: an allocation failed\n"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_2(self, exc, line, monkeypatch, capsys):
        def allocate(*args):
            raise exc

        monkeypatch.setattr(volterra_ito.cli, "energy_function", allocate)
        assert main(["bracket", "--kernel", "brownian", "--grid-n", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == line


@pytest.mark.parametrize("argv, code", [
    ("approx --kernel rl --hurst 0.25 --n-terms 2,4,8,16 --t-min 1e-4", 0),
    # bracket_sup rises from n = 2 to 4 while l2 falls
    ("approx --kernel rl --hurst 0.25 --grid-n 32 --n-terms 2,4 --t-min 1e-3", 1),
], ids=["readme", "bracket-rises"])
def test_approx_exit_is_the_reports_verdict(argv, code, tmp_path):
    out = tmp_path / "approx.json"
    assert main([*argv.split(), "--no-timestamp", "--output", str(out)]) == code
    args = build_parser().parse_args(argv.split())
    rep = convergence_suite(RiemannLiouvilleKernel(hurst=0.25, horizon=1.0),
                            args.n_terms, TimeGrid.uniform(args.grid_n, 1.0),
                            t_min=args.t_min)
    assert rep.passed == (code == 0)
    assert json.loads(out.read_text())["approx"] == json.loads(
        json.dumps(rep.to_dict()))
