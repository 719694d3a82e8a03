"""Paired benchmark runs of two checkouts, written as one BENCH JSON file.

Usage (from the root of a checkout):

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        [--pairs 10] [--seed 42]

Each checkout is a plain copy of one tree, for example made with
``git archive REV | tar -x -C DIR``. The workloads and the run length are
those of the parent's BENCHMARK.json (``workloads`` and ``run_seconds``).
For every workload the script runs
``python3 perfbench/run.py --workload W --seconds S --seed N --trace 0`` in
the parent and in the change checkout, ``--pairs`` times, alternating which
side runs first (pair 1 runs the parent first). It records:

* each end-to-end metric of BENCHMARK.json: the runs, their median and
  quartiles per side, and in how many pairs the change read lower or higher;
* the raw pass walls (``passes[*].wall_s`` of the run's record file in
  ``perfbench/results/``) beside ``wall_ref``: per run their median and
  quartiles, the pass count and the median reference-kernel time;
* the seconds of each operation (``passes[*].op_seconds`` of the record
  file): per run their median over the untraced passes, compared per
  operation the way the raw pass walls are (``op_s``);
* the CPU seconds of each run's process tree (``RUSAGE_CHILDREN``);
* the lines of ``src/`` per module and the AST count of settable parameters
  (function parameters with a default, plus ``**kwargs``, and dataclass
  fields with a ``default`` or ``default_factory`` that ``__init__`` takes);
* the sha256 of the full ``--no-timestamp`` JSON, ``config`` included, of
  every ``perfbench/workloads.py`` operation at seeds 42 and 7 and
  ``--threads`` 1 and 2, and of ``sandbox_suite()``'s payload; beside it
  the payload digest with ``config`` left out (``workloads.digest``, as
  perfbench compares outputs); and the lists of outputs whose exit code or
  full digest (``moved``) or payload digest (``payload_moved``) differs
  between the sides, so a config-only move cannot hide a moved number.

A run takes about pairs x workloads x 2 x (S + 10) seconds; run nothing else
meanwhile.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGEST_SEEDS = (42, 7)
DIGEST_THREADS = (1, 2)

# Run in a child with the checkout's src/ and perfbench/ importable: prints
# {output name: [exit code, sha256 of the written file, its payload digest
# without config]}, both digests null when nothing was written.
_DIGEST_CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import workloads
from volterra_ito import cli
from volterra_ito.sandbox import sandbox_suite
seeds, threads = json.loads(sys.argv[1])
out = {}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "out.json"
    for seed in seeds:
        for n in threads:
            for workload in workloads.WORKLOADS:
                for op in workloads.workload_ops(workload, seed, n):
                    path.unlink(missing_ok=True)
                    code = cli.main([*op.argv, "--no-timestamp",
                                     "--output", str(path)])
                    entry = [code, None, None]
                    if path.exists():
                        data = path.read_bytes()
                        entry[1:] = [hashlib.sha256(data).hexdigest(),
                                     workloads.digest(json.loads(data))]
                    out[f"{workload}/{op.name}/seed{seed}/threads{n}"] = entry
report = sandbox_suite()
text = json.dumps(report, sort_keys=True)
out["sandbox_suite()"] = [0, hashlib.sha256(text.encode()).hexdigest(),
                          workloads.digest(report)]
print(json.dumps(out))
"""


def src_lines(root: Path) -> dict:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((root / "src" / "volterra_ito").glob("*.py"))}


def _name(node) -> str:
    """The last name of a dotted name or call: ``dataclass`` for
    ``dataclasses.dataclass(frozen=True)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _settable_field(stmt) -> bool:
    """Whether a statement of a dataclass body is a field ``__init__`` takes
    with a default: ``x: T = v``, or ``field(...)`` with ``default`` or
    ``default_factory`` and not ``init=False``; a ClassVar is no field."""
    if (not isinstance(stmt, ast.AnnAssign) or stmt.value is None
            or "ClassVar" in ast.unparse(stmt.annotation)):
        return False
    if not (isinstance(stmt.value, ast.Call) and _name(stmt.value) == "field"):
        return True
    kw = {k.arg: k.value for k in stmt.value.keywords}
    init = kw.get("init")
    return (("default" in kw or "default_factory" in kw)
            and not (isinstance(init, ast.Constant) and init.value is False))


def settable_parameters(root: Path) -> int:
    """Parameters with a default, plus **kwargs, of every function in src/,
    and the fields with a default of every dataclass there."""
    count = 0
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                count += (len(a.defaults) + (a.kwarg is not None)
                          + sum(d is not None for d in a.kw_defaults))
            elif (isinstance(node, ast.ClassDef)
                  and any(_name(d) == "dataclass" for d in node.decorator_list)):
                count += sum(map(_settable_field, node.body))
    return count


def op_digests(root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD,
         json.dumps([DIGEST_SEEDS, DIGEST_THREADS])],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def moved(digests: dict, column: int) -> list:
    """The outputs whose exit code or digest ``column`` (1: the full file, 2:
    the payload without ``config``) differs between the sides, or that the
    change lacks."""
    def key(entry):
        return entry and (entry[0], entry[column])
    return sorted(k for k in digests["parent"]
                  if key(digests["parent"][k]) != key(digests["change"].get(k)))


def record_of(root: Path, workload: str, seed: int) -> dict:
    """The record file of the last perfbench run of ``workload`` in ``root``."""
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def op_medians(passes: list) -> dict:
    """Per operation, its median seconds over ``passes`` (``op_seconds``)."""
    return {op: statistics.median(p["op_seconds"][op] for p in passes)
            for op in passes[0]["op_seconds"]}


def timed_run(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One perfbench run in ``root``: its end-to-end metrics, raw pass walls,
    median seconds per operation and the CPU seconds of its process tree."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=root, stdout=subprocess.DEVNULL, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = record_of(root, workload, seed)
    plain = [p for p in record["passes"] if not p["traced"]]
    return {
        "metrics": record["measured"],
        "pass_wall_s": {**summary([p["wall_s"] for p in plain]),
                        "passes": len(plain),
                        "ref_median_s": statistics.median(p["ref_s"] for p in plain)},
        "op_s": op_medians(plain),
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
    }


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict) -> dict:
    """Per side the runs and their median and quartiles, and the pair counts
    in which the change read lower and higher."""
    pairs = list(zip(runs["parent"], runs["change"]))
    return {
        **{side: {**summary(runs[side]), "runs": runs[side]} for side in SIDES},
        "change_lower_pairs": sum(c < p for p, c in pairs),
        "change_higher_pairs": sum(c > p for p, c in pairs),
    }


def bench_workload(roots: dict, workload: str, seconds: float, args) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(timed_run(roots[side], workload, seconds, args.seed))
            print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    names = list(runs["parent"][0]["metrics"])
    out = {"seed": args.seed, "pairs": args.pairs}
    for name in names:
        out[name] = compare({s: [r["metrics"][name] for r in runs[s]] for s in SIDES})
    out["raw_pass_wall_s"] = compare(
        {s: [r["pass_wall_s"]["median"] for r in runs[s]] for s in SIDES})
    for side in SIDES:
        out["raw_pass_wall_s"][side]["per_run"] = [r["pass_wall_s"]
                                                   for r in runs[side]]
    out["process_cpu_s"] = compare({s: [r["cpu_s"] for r in runs[s]] for s in SIDES})
    out["op_s"] = {op: compare({s: [r["op_s"][op] for r in runs[s]] for s in SIDES})
                   for op in runs["parent"][0]["op_s"]}
    return out


def _medians(cmps: dict, pairs: int) -> str:
    """Parent -> change median of every comparison in ``cmps``, joined."""
    parts = []
    for metric, cmp in cmps.items():
        if not isinstance(cmp, dict) or "parent" not in cmp:
            continue
        p, c = cmp["parent"]["median"], cmp["change"]["median"]
        rel = f" ({(c - p) / p:+.1%})" if p else ""
        parts.append(f"{metric} {p:.4g} -> {c:.4g}{rel}, change lower in "
                     f"{cmp['change_lower_pairs']} of {pairs}")
    return "; ".join(parts)


def notes(workloads: dict) -> list:
    """One line per workload, and one more per workload for its operations."""
    lines = []
    for name, w in workloads.items():
        lines.append(f"{name}: " + _medians(w, w["pairs"]))
        if "op_s" in w:
            lines.append(f"{name} op_s: " + _medians(w["op_s"], w["pairs"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    digests = {side: op_digests(roots[side]) for side in SIDES}
    full_moved, payload_moved = moved(digests, 1), moved(digests, 2)
    record = {
        "benchmark": f"python3 perfbench/run.py --workload W --seconds "
                     f"{seconds:g} --seed {args.seed} --trace 0",
        "order": "parent and change alternate which runs first, one pair at a "
                 "time (pair 1 parent first); each side runs from its own copy "
                 "of the tree",
        "src_lines": {s: sum(src_lines(roots[s]).values()) for s in SIDES},
        "src_lines_by_module": {s: src_lines(roots[s]) for s in SIDES},
        "settable_parameters": {s: settable_parameters(roots[s]) for s in SIDES},
        "payloads": {
            "what": "per output [exit code, sha256 of the full --no-timestamp "
                    "JSON (config included), workloads.digest of its payload "
                    "(config excluded)] of every perfbench/workloads.py op at "
                    f"seeds {list(DIGEST_SEEDS)} and --threads "
                    f"{list(DIGEST_THREADS)}, and of sandbox_suite()'s payload",
            "outputs_compared": len(digests["parent"]),
            "identical": len(digests["parent"]) - len(full_moved),
            "moved": full_moved,
            "payload_identical": len(digests["parent"]) - len(payload_moved),
            "payload_moved": payload_moved,
            "nonzero_exits": {s: sorted(k for k, (code, *_) in digests[s].items()
                                        if code != 0) for s in SIDES},
            "digests": digests,
        },
    }
    record["workloads"] = {w: bench_workload(roots, w, seconds, args) for w in names}
    meta = record_of(roots["parent"], names[0], args.seed)["meta"]
    record["machine"] = {key: meta[key] for key in (
        "cpu_model", "nproc", "python", "numpy", "scipy", "blas")}
    record["notes"] = notes(record["workloads"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(full_moved)} of {len(digests['parent'])} outputs moved, "
          f"{len(payload_moved)} in their payload: {payload_moved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
