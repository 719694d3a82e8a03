"""Time-to-verdict benchmark for volterra-ito.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client. The client is one process
(``worker.py``) that imports ``volterra_ito.cli`` and runs the workload's CLI
operations back to back in-process, pass after pass, for ``--seconds``.
Before it, a few fresh interpreters only set up and exit, to sample set-up
time. Metric names and units come from ``BENCHMARK.json``; the last stdout
line is the JSON result, and a fuller record (run metadata, per-pass times,
digests, per-operation self times) is written to ``perfbench/results/``.

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: fresh interpreter to ``cli`` imported and argv built, median
  over the probes and the client;
* ``wall_ref``: a pass's wall time (the sum of its operations' times) over
  the mean time of a fixed reference kernel sampled while it ran, median
  over passes. The host's speed drifts by up to a factor of two within and
  between runs; the ratio cancels most of that drift, the raw wall does not.
  Raw walls and reference times are in the record file;
* ``peak_rss_mb``: peak resident memory of the client process;
* ``tol_ratio``: geometric mean over the verify-* reports of
  (z*se + bias_bound) / max(|estimate|, |reference|).

With ``--trace 1`` untraced and traced passes alternate, and it reports the
per-layer metrics of the traced passes (medians) and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6  # set-up samples besides the client's own
RUN_TIMEOUT_S = 150.0  # a run measures at most 60 s; a hung client is killed
RESIDUAL_TOL = 1e-6  # trace accounting residual, as a share of the wall


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def spawn(args: list, scratch: Path) -> tuple:
    """Start the client with ``args``; return (set-up seconds, last stdout line)."""
    env = {k: v for k, v in os.environ.items() if k != "VOLTERRA_ITO_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--scratch", str(scratch)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"client {args} exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def load_reference(workload: str, seed: int) -> dict:
    """Recorded digests per operation for this workload and seed, if any."""
    path = HERE / "reference_digests.json"
    if not path.exists():
        return {}
    recorded = json.loads(path.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed), {})


def digests_of(result: dict) -> dict:
    return {v["op"]: v["digest"] for v in result["verdicts"]}


def judge_run(passes: list, threaded: dict | None = None) -> dict:
    """Count attempted and failed operations and list why the run is not
    correct: failed operations, digests that differ between passes, digests
    of the ``threaded`` check pass that differ from the timed ones, or trace
    accounting that does not add up."""
    verdicts = [v for p in passes + ([threaded] if threaded else [])
                for v in p["verdicts"]]
    problems = [f"{v['op']}: {v['reason']}" for v in verdicts if not v["ok"]]
    first = digests_of(passes[0])
    if any(digests_of(p) != first for p in passes[1:]):
        problems.append("digests differ between passes of one seed")
    if threaded is not None and first != digests_of(threaded):
        moved = sorted(k for k in first if first[k] != digests_of(threaded).get(k))
        problems.append(f"threaded digests differ from single-threaded: {moved}")
    for p in passes:
        residual = p.get("layers", {}).get("trace.residual_s", 0.0)
        if abs(residual) > RESIDUAL_TOL * p["wall_s"]:
            problems.append(f"self times do not add up to the wall: {residual}")
    return {"attempted": len(verdicts),
            "failed": sum(not v["ok"] for v in verdicts),
            "problems": problems}


def end_to_end(client: dict, setups: list) -> dict:
    plain = [p for p in client["passes"] if not p["traced"]]
    terms = [t for v in plain[0]["verdicts"] for t in v["tol_terms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in plain),
        "peak_rss_mb": client["peak_rss_mb"],
        "tol_ratio": workloads.geometric_mean(terms),
    }


def per_layer(client: dict) -> dict:
    traced = [p for p in client["passes"] if p["traced"]]
    plain = [p for p in client["passes"] if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="volterra-ito time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and waits for its client (spawn's
    # finally block) instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "volterra_ito" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/volterra_ito and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = HERE / "results"
    scratch = results / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [spawn(common + ["--probe"], scratch)[0]
                  for _ in range(SETUP_PROBES)]
        setup, line = spawn(common + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace)], scratch)
        setups.append(setup)
        client = json.loads(line)
        if args.trace:
            shutil.move(scratch / "spans.jsonl.gz", results /
                        f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    except (BenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    passes = client["passes"]
    run = judge_run(passes, client["threaded"])
    measured = per_layer(client) if args.trace else end_to_end(client, setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    digests = digests_of(passes[0])
    recorded = load_reference(args.workload, args.seed)
    moved = sorted(op for op in digests if op in recorded and recorded[op] != digests[op])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": client["meta"],
        "setup_s": setups,
        "peak_rss_mb": client["peak_rss_mb"],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "ref_s": p.get("ref_s"),
                    "op_seconds": {v["op"]: v["seconds"] for v in p["verdicts"]}}
                   for p in passes],
        "digests": digests,
        "numbers_moved": moved if recorded else "no recorded digests for this seed",
        "problems": run["problems"],
        "metrics": metrics,
        "measured": measured,
        "per_op_self_s": next((p["per_op"] for p in reversed(passes) if p["traced"]), None),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"meta: {json.dumps(record['meta'], sort_keys=True)}")
    print(f"passes: {len(passes)}, numbers moved: {record['numbers_moved']}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
