"""The benchmark's client: one process running a workload's passes.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --scratch DIR [--probe]

Prints ``ready`` as soon as ``volterra_ito.cli`` is imported and the
workload's argv is built (the parent times set-up up to that line; with
``--probe`` it exits there). Then it runs the workload's operations back to
back in-process through ``cli.main``, pass after pass, until the next pass
would end past ``--seconds`` (at least three passes, or one untraced and one
traced pass with ``--trace 1``), and prints one JSON line with every pass's
verdicts and wall time, the process's peak RSS, for traced passes the
per-layer metrics, and the verdicts of the untimed ``--threads 2`` check
pass of the workloads that have one. The spans of the last traced pass go to
``DIR/spans.jsonl.gz``.

Untraced passes also time a fixed reference kernel every 0.25 s while they
run, outside the operations' times. Its mean over a pass is that pass's
``ref_s``: how fast the host ran while the pass ran.
"""

import argparse
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from volterra_ito import cli  # noqa: E402

import workloads  # noqa: E402

MIN_PASSES = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_metadata(workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "threads": 1,
        "threaded_check_threads": 2 if workload in workloads.THREADED_CHECK else None,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


SAMPLE_EVERY_S = 0.25  # the reference kernel's sampling period


def _bump(t: float) -> float:
    return math.exp(-t) * math.sqrt(t + 1.0)


class Reference:
    """A yardstick for the host's speed, sampled while the operations run.

    The host's speed drifts by up to a factor of two over seconds to tens of
    seconds as other tenants of the machine come and go, and every
    operation's time drifts with it. Every ``SAMPLE_EVERY_S`` a timer signal
    interrupts the operation in progress (between two Python bytecodes, so
    never inside a C call) and times a fixed kernel that no change to the
    program can touch, about 20 ms of four kinds of work the program does:
    Python function calls doing scalar math, numpy calls on 32-element
    arrays from a Python loop, BLAS products and a 16 MB streaming update.
    No one of them slows with the host the way every workload does; an
    equal mix of the four tracks each workload to about 5% per pass. A
    pass's wall time over the kernel's mean time cancels the drift;
    ``clock`` leaves the kernel's own time out of the operations' times.
    Use it as a context manager around one pass.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.nodes = rng.random(32)
        self.weights = rng.random(32)
        self.matrix = rng.standard_normal((384, 384))
        self.stream = np.zeros(2_000_000)
        self.samples = []
        self.spent = 0.0  # seconds spent in the kernel so far

    def kernel(self) -> None:
        x = 0.0
        for k in range(18_000):
            x += _bump(k * 1e-3)
        for a in range(1200):
            float(np.exp(-0.001 * a * self.nodes) @ self.weights)
        for _ in range(3):
            self.matrix @ self.matrix
        for _ in range(3):
            np.multiply(self.stream, 1.0, out=self.stream)

    def _measure(self) -> None:
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def _sample(self, signum, frame):
        self._measure()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)  # re-armed, never nested

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in the kernel."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran between the two reads
                return now - spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._measure()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        # Ignore first: a sample still pending would re-arm the timer, and
        # the default action of SIGALRM ends the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._measure()


def run_ops(ops, scratch: Path, clock=time.perf_counter) -> tuple:
    """Run every operation back to back; return verdicts and the wall window
    as read on ``clock``."""
    verdicts = []
    start = clock()
    for op in ops:
        out = scratch / f"{op.name}.json"
        t0 = clock()
        text = error = None
        code = None
        try:
            code = cli.main(op.argv + ["--no-timestamp", "--output", str(out)])
            text = out.read_text(encoding="utf-8")
        except SystemExit as exc:  # argparse rejects a malformed argv
            code = exc.code
        except Exception as exc:  # any escape is a failed verdict, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            out.unlink(missing_ok=True)
        verdict = workloads.judge(op, code, text, error)
        verdict["seconds"] = clock() - t0
        verdicts.append(verdict)
    return verdicts, start, clock()


def run_pass(ops, scratch: Path, trace: bool) -> dict:
    """One pass; untraced passes also carry the reference kernel's mean
    time, traced ones per-layer metrics and spans. A pass's wall time is
    the sum of its operations' times."""
    if not trace:
        with Reference() as reference:
            verdicts, _, _ = run_ops(ops, scratch, reference.clock)
        return {"traced": False, "wall_s": sum(v["seconds"] for v in verdicts),
                "ref_s": sum(reference.samples) / len(reference.samples),
                "verdicts": verdicts}
    import tracer

    recorder = tracer.Tracer()
    restore = tracer.install(recorder)
    try:
        verdicts, start, end = run_ops(ops, scratch)
    finally:
        restore()
    metrics, acc = tracer.layer_metrics(recorder.spans, recorder.errors,
                                        start, end)
    per_root = tracer.self_by_root(recorder.spans, acc["self"])
    recorder.write(scratch / "spans.jsonl.gz")
    return {
        "traced": True,
        "wall_s": sum(v["seconds"] for v in verdicts),
        "verdicts": verdicts,
        "layers": metrics,
        "per_op": [{"op": v["op"], "duration_s": r["duration_s"],
                    "self_s": r["self_s"]}
                   for v, r in zip(verdicts, per_root)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="exit once set up (a set-up time sample)")
    args = parser.parse_args()
    ops = workloads.workload_ops(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0

    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, args.scratch,
                               bool(args.trace) and len(passes) % 2 == 1))
        longest = max(longest, time.perf_counter() - t0)
        enough = len(passes) % 2 == 0 if args.trace else len(passes) >= MIN_PASSES
        if enough and time.perf_counter() - start + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    threaded = None
    if args.workload in workloads.THREADED_CHECK:
        threaded = run_pass(workloads.workload_ops(args.workload, args.seed, 2),
                            args.scratch, False)
    print(json.dumps({
        "passes": passes,
        "threaded": threaded,
        "peak_rss_mb": peak_rss_mb,
        "meta": run_metadata(args.workload, args.seed),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
