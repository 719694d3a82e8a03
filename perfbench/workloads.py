"""Benchmark workloads: the CLI operations each one runs and how each
operation's output is judged.

Every operation is one ``volterra-ito`` command line. The workload seed only
fills the ``--seed`` of the operations that draw random numbers; everything
else in an argv is fixed, so two seeds give the same work on different
inputs. Grid sizes are those of the README examples and acceptance
criteria; Monte Carlo path counts are kept to one or two 4096-path blocks so
that a run holds several passes. Each operation keeps the layer that
dominates it at full size.

This module is pure Python (no numpy): the benchmark's parent process and
its tests import it without paying for the scientific stack.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, NamedTuple

DEFAULT_SEED = 42  # the acceptance suite's SEED

WORKLOADS = ("mc_pathwise", "mc_terminal", "quadrature")

# Workloads whose passes are followed by one untimed pass at --threads 2 whose
# report digests must equal the timed ones: the README promises that
# --threads changes no output bit. Both mc_terminal ops span two blocks.
THREADED_CHECK = ("mc_terminal",)


class Op(NamedTuple):
    """One CLI invocation and the acceptance check on its JSON payload."""

    name: str
    argv: list
    check: Callable[[dict], str | None] | None = None


# ---------------------------------------------------------------------------
# Output checks: each returns None when the payload meets its criterion and a
# short reason otherwise.
# ---------------------------------------------------------------------------

def _report(payload: dict) -> dict:
    return payload["reports"][0]


def check_brownian_residual(payload):
    """Criterion 6: E[res^2] within 10% of 2 T^2 / n for n = 256."""
    est = _report(payload)["estimate"]
    exact = 2.0 / 256
    if abs(est - exact) > 0.10 * exact:
        return f"brownian residual {est!r} not within 10% of {exact!r}"
    return None


def check_energy_mean_identity(payload):
    """Criterion 4: |estimate - reference| <= 1e-6 on an energy grid."""
    rep = _report(payload)
    gap = abs(rep["estimate"] - rep["reference"])
    if not gap <= 1e-6:
        return f"mean identity residual {gap!r} above 1e-6"
    return None


def check_cross_bracket(payload):
    """Criterion 8: the xy reference is sqrt(0.5) * 4/3 to 1e-9 relative."""
    ref = _report(payload)["reference"]
    want = math.sqrt(0.5) * 4.0 / 3.0
    if not abs(ref - want) <= 1e-9 * want:
        return f"cross-bracket reference {ref!r} is not {want!r}"
    return None


def check_bracket_power_law(payload):
    """Criterion 3: Gamma_RL(t) = t^(2H) to 1e-10 relative, H = 0.25."""
    br = payload["bracket"]
    worst = 0.0
    for t, g in zip(br["t"], br["gamma"]):
        if t > 0.0:
            want = t ** 0.5
            worst = max(worst, abs(g - want) / want)
    if not worst <= 1e-10:
        return f"bracket relative error {worst!r} above 1e-10"
    return None


def check_hurst(payload):
    """Criterion 10: fitted-bracket Hurst estimate within 0.02 of 0.25."""
    h = payload["hurst"]["estimate"]
    if not abs(h - 0.25) <= 0.02:
        return f"hurst estimate {h!r} not within 0.02 of 0.25"
    return None


def check_cholesky_variance(payload):
    """Var(X_T) of the Cholesky oracle within 4 sqrt(2/paths) of Gamma(T) = 1."""
    sim = payload["simulate"]
    tol = 4.0 * math.sqrt(2.0 / sim["paths"])
    if not abs(sim["var_XT"] - 1.0) <= tol:
        return f"cholesky var_XT {sim['var_XT']!r} not within {tol:.3g} of 1"
    return None


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _terminal_ops(seed: int, threads: int) -> list:
    common = f"--grid-n 1024 --paths 8192 --seed {seed} --threads {threads}"
    return [
        Op("multi_xy", (
            "verify-multi --kernel rl --hurst 0.25 --kernel2 brownian "
            f"--phi2d xy {common}").split(), check_cross_bracket),
        Op("mean_cos", (
            f"verify-mean --kernel rl --hurst 0.25 --phi cos {common}").split()),
    ]


def workload_ops(workload: str, seed: int = DEFAULT_SEED, threads: int = 1) -> list:
    """The operations of one pass of ``workload`` for the given seed, with
    the Monte Carlo ones at ``--threads threads``."""
    if workload == "mc_pathwise":
        rl = f"verify-path --kernel rl --hurst 0.25 --threads {threads}"
        return [
            Op("rl_square", (
                f"{rl} --grid-n 1024 --paths 4096 --phi square --t 1 "
                f"--seed {seed}").split()),
            Op("brownian_square", (
                f"verify-path --kernel brownian --threads {threads} --grid-n 256 "
                f"--paths 8192 --phi square --seed {seed}").split(),
               check_brownian_residual),
            Op("rl_cos", (
                f"{rl} --grid-n 256 --paths 2048 --phi cos --seed {seed}").split()),
            Op("rl_mollified", (
                f"{rl} --grid-n 256 --paths 2048 --phi mollified "
                f"--seed {seed}").split()),
        ]
    if workload == "mc_terminal":
        return _terminal_ops(seed, threads)
    if workload == "quadrature":
        unique = "verify-unique --grid-kind energy --grid-n 1024 " \
                 "--phi mollified --eps 0.01"
        mean = "verify-mean --grid-kind energy --grid-n 1024 --phi cos"
        return [
            Op("unique_brownian", f"{unique} --kernel brownian".split()),
            Op("unique_rl025", f"{unique} --kernel rl --hurst 0.25".split()),
            Op("unique_rl075", f"{unique} --kernel rl --hurst 0.75".split()),
            Op("unique_expsum", (
                f"{unique} --kernel expsum --weights 1 --rates 1").split()),
            Op("mean_energy_rl025", f"{mean} --kernel rl --hurst 0.25".split(),
               check_energy_mean_identity),
            Op("mean_energy_rl075", f"{mean} --kernel rl --hurst 0.75".split(),
               check_energy_mean_identity),
            Op("bracket", "bracket --kernel rl --hurst 0.25 --grid-n 1024".split(),
               check_bracket_power_law),
            Op("approx", (
                "approx --kernel rl --hurst 0.25 --n-terms 2,4,8,16 "
                "--t-min 1e-4").split()),
            Op("hurst", (
                "hurst --kernel rl --hurst 0.25 --fit-n 16 --t-min 1e-5").split(),
               check_hurst),
            Op("cholesky", (
                "simulate --sampler cholesky --kernel rl --hurst 0.25 "
                f"--grid-n 256 --paths 4096 --seed {seed}").split(),
               check_cholesky_variance),
            Op("sandbox", ["sandbox"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def digest(payload: dict) -> str:
    """sha256 of a payload without its ``config`` echo.

    ``config`` carries ``threads``; dropping it lets the threaded check pass
    be compared bit for bit with the single-threaded ones.
    """
    body = {k: v for k, v in payload.items() if k != "config"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tolerance_terms(payload: dict) -> list:
    """(z*se + bias_bound) / max(|estimate|, |reference|) for each report."""
    out = []
    for rep in payload.get("reports", []):
        scale = max(abs(rep["estimate"]), abs(rep["reference"]))
        out.append((rep["z"] * rep["se"] + rep["bias_bound"]) / scale)
    return out


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def judge(op: Op, exit_code, text: str | None, error: str | None = None) -> dict:
    """Verdict of one operation: ok, why not, payload digest, tolerance terms.

    An operation fails when it raised (``error``), exited non-zero, wrote no
    parsable JSON, or missed its check.
    """
    verdict = {"op": op.name, "exit_code": exit_code, "ok": False,
               "reason": error, "digest": None, "tol_terms": []}
    if error is not None:
        return verdict
    if exit_code != 0:
        verdict["reason"] = f"exit code {exit_code}"
        return verdict
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:
        verdict["reason"] = f"unreadable output: {exc}"
        return verdict
    verdict["digest"] = digest(payload)
    try:
        verdict["tol_terms"] = tolerance_terms(payload)
        reason = op.check(payload) if op.check else None
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        reason = f"malformed report: {type(exc).__name__}: {exc}"
    verdict["reason"] = reason
    verdict["ok"] = reason is None
    return verdict
