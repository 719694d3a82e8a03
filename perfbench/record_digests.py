"""Record the payload digests that benchmark runs are compared against.

Usage: python3 perfbench/record_digests.py SEED [SEED ...]

Runs one pass of every workload per seed and stores each operation's digest
in ``perfbench/reference_digests.json``. A run whose digests differ from the
recorded ones reports them as "numbers moved"; that is information, not a
failure. Re-record only when a change moves numbers on purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads


def main(argv) -> int:
    seeds = [int(a) for a in argv] or [workloads.DEFAULT_SEED]
    here = Path(__file__).resolve().parent
    path = here / "reference_digests.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    (here / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=here / "results") as tmp:
        for workload in workloads.WORKLOADS:
            for seed in seeds:
                ops = workloads.workload_ops(workload, seed)
                verdicts, _, _ = worker.run_ops(ops, Path(tmp))
                failed = [f"{v['op']}: {v['reason']}" for v in verdicts if not v["ok"]]
                if failed:
                    print(f"{workload} seed {seed} failed: {failed}", file=sys.stderr)
                    return 1
                recorded.setdefault(workload, {})[str(seed)] = {
                    v["op"]: v["digest"] for v in verdicts}
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
