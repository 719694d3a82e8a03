"""Tests of the benchmark's own arithmetic and verdicts.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(sid, start, end, parent=None, thread=1, name="f", work=None):
    return (sid, name, start, end, parent, thread, work)


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 2.0, 3.0, 1),
             span(3, 5.0, 6.0, 0)]
    acc = tracer.account(spans, 0.0, 12.0)
    assert acc["self"] == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert acc["uncovered_s"] == 2.0
    assert acc["parallel_s"] == 0.0
    assert acc["self_sum_s"] + acc["uncovered_s"] == acc["wall_s"]
    assert acc["residual_s"] == 0.0


def test_self_time_of_threaded_children_counts_their_union_once():
    spans = [span(0, 0.0, 10.0, name="verify"),
             span(1, 1.0, 6.0, 0, thread=2, name="sim"),
             span(2, 2.0, 7.0, 0, thread=3, name="sim"),
             span(3, 8.0, 9.0, 0, name="mehler")]
    acc = tracer.account(spans, 0.0, 10.0)
    assert acc["self"][0] == pytest.approx(3.0)  # 10 - |[1,7] u [8,9]|
    assert acc["parallel_s"] == pytest.approx(4.0)  # 5 + 5 + 1 - 7
    assert acc["residual_s"] == pytest.approx(0.0)
    sims = [(s[2], s[3]) for s in spans if s[1] == "sim"]
    assert tracer.concurrency(sims) == pytest.approx(10.0 / 6.0)
    assert tracer.concurrency(sims[:1]) == 1.0
    assert tracer.concurrency([]) == 0.0


def test_child_outside_its_parent_breaks_the_wall_check():
    spans = [span(0, 0.0, 10.0), span(1, 8.0, 12.0, 0)]
    assert tracer.account(spans, 0.0, 12.0)["residual_s"] == pytest.approx(2.0)


def test_pool_thread_span_takes_the_submitting_span_as_parent():
    rec = tracer.Tracer()
    inner = rec.wrap("paths.inner", lambda x: x + 1)

    def outer(n):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(n)))

    assert rec.wrap("itoverify.outer", outer)(4) == [1, 2, 3, 4]
    (top,) = [s for s in rec.spans if s[1] == "itoverify.outer"]
    kids = [s for s in rec.spans if s[1] == "paths.inner"]
    assert len(kids) == 4 and all(s[4] == top[0] for s in kids)
    assert top[4] is None


def test_errors_are_counted_per_layer_and_reraised():
    rec = tracer.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.wrap("kernels.boom", boom)()
    assert rec.errors == {"kernels": 1}
    assert rec.spans[0][1] == "kernels.boom"


def test_install_traces_the_cli_and_restores_it(tmp_path):
    from volterra_ito import cli

    original = cli.main
    rec = tracer.Tracer()
    restore = tracer.install(rec)
    try:
        t0 = time.perf_counter()
        code = cli.main(["bracket", "--kernel", "brownian", "--grid-n", "4",
                         "--output", str(tmp_path / "out.json")])
        t1 = time.perf_counter()
    finally:
        restore()
    assert code == 0
    assert cli.main is original
    metrics, acc = tracer.layer_metrics(rec.spans, rec.errors, t0, t1)
    assert metrics["bracket.energy_function.cells"] == 4 * 5 // 2
    assert metrics["trace.spans"] == len(rec.spans)
    assert acc["residual_s"] == pytest.approx(0.0, abs=1e-9)
    names = {s[1] for s in rec.spans}
    assert {"cli.main", "bracket.energy_function",
            "kernels.kernel_from_spec"} <= names


# ---------------------------------------------------------------------------
# Verdicts and ops_failed
# ---------------------------------------------------------------------------

def _op(workload, name):
    (op,) = [o for o in workloads.workload_ops(workload) if o.name == name]
    return op


def _report_payload(**fields):
    rep = {"estimate": 2.0 / 256, "reference": 0.0, "se": 1e-4,
           "bias_bound": 1e-3, "z": 4.0, "pass": True}
    rep.update(fields)
    return json.dumps({"config": {"threads": 1}, "reports": [rep]})


def _pass(verdicts, wall=1.0, ref=1.0):
    return {"verdicts": verdicts, "wall_s": wall, "ref_s": ref, "traced": False}


def test_wrong_exit_code_and_missed_check_count_as_failed():
    op = _op("mc_pathwise", "brownian_square")
    good = workloads.judge(op, 0, _report_payload())
    bad_exit = workloads.judge(op, 1, _report_payload())
    bad_value = workloads.judge(op, 0, _report_payload(estimate=4.0 / 256))
    raised = workloads.judge(op, None, None, "raised ValueError: x")
    assert good["ok"] and good["reason"] is None
    assert not bad_exit["ok"] and "exit code 1" in bad_exit["reason"]
    assert not bad_value["ok"] and "not within 10%" in bad_value["reason"]
    assert not raised["ok"]
    outcome = run.judge_run([_pass([good, bad_exit]), _pass([bad_value, raised])])
    assert (outcome["attempted"], outcome["failed"]) == (4, 3)
    assert len(outcome["problems"]) >= 3


@pytest.mark.parametrize("op_name, payload, ok", [
    ("bracket", {"bracket": {"t": [0.0, 0.25, 1.0], "gamma": [0.0, 0.5, 1.0]}}, True),
    ("bracket", {"bracket": {"t": [0.0, 0.25], "gamma": [0.0, 0.5 + 1e-9]}}, False),
    ("hurst", {"hurst": {"estimate": 0.265}}, True),
    ("hurst", {"hurst": {"estimate": 0.275}}, False),
    ("cholesky", {"simulate": {"paths": 4096, "var_XT": 1.05}}, True),
    ("cholesky", {"simulate": {"paths": 4096, "var_XT": 1.2}}, False),
])
def test_acceptance_checks(op_name, payload, ok):
    verdict = workloads.judge(_op("quadrature", op_name), 0, json.dumps(payload))
    assert verdict["ok"] is ok


def test_cross_bracket_and_energy_mean_checks():
    xy = _op("mc_terminal", "multi_xy")
    ref = math.sqrt(0.5) * 4.0 / 3.0
    assert workloads.judge(xy, 0, _report_payload(reference=ref))["ok"]
    assert not workloads.judge(xy, 0, _report_payload(reference=ref * (1 + 1e-8)))["ok"]
    mean = _op("quadrature", "mean_energy_rl025")
    assert workloads.judge(mean, 0, _report_payload(estimate=0.6, reference=0.6 + 5e-7))["ok"]
    assert not workloads.judge(mean, 0, _report_payload(estimate=0.6, reference=0.6 + 2e-6))["ok"]


def test_threaded_digests_must_equal_single_threaded():
    op = _op("mc_terminal", "mean_cos")
    one = workloads.judge(op, 0, _report_payload())
    two = workloads.judge(op, 0, _report_payload().replace('"threads": 1', '"threads": 2'))
    assert one["digest"] == two["digest"]  # config is not part of the digest
    assert not run.judge_run([_pass([one])], _pass([two]))["problems"]
    moved = workloads.judge(op, 0, _report_payload(se=2e-4))
    outcome = run.judge_run([_pass([one])], _pass([moved]))
    assert outcome["problems"] and outcome["attempted"] == 2


# ---------------------------------------------------------------------------
# tol_ratio
# ---------------------------------------------------------------------------

def test_tol_ratio_is_geometric_mean_of_report_tolerances():
    op = _op("mc_terminal", "mean_cos")
    a = workloads.judge(op, 0, _report_payload(estimate=2.0, reference=1.0,
                                               se=0.1, bias_bound=0.2))
    b = workloads.judge(op, 0, _report_payload(estimate=-0.5, reference=0.25,
                                               se=0.0, bias_bound=0.05))
    assert a["tol_terms"] == [pytest.approx((4 * 0.1 + 0.2) / 2.0)]
    assert b["tol_terms"] == [pytest.approx(0.05 / 0.5)]
    sandbox = workloads.judge(_op("quadrature", "sandbox"), 0, '{"sandbox": {}}')
    assert sandbox["tol_terms"] == []  # only verify-* reports count
    client = {"passes": [_pass([a, b, sandbox], 2.0, 0.5),
                         _pass([a, b, sandbox], 1.0, 0.5),
                         _pass([a, b, sandbox], 5.0, 1.0)], "peak_rss_mb": 100.0}
    metrics = run.end_to_end(client, [0.7, 0.9, 0.8])
    assert metrics["tol_ratio"] == pytest.approx(math.sqrt(0.3 * 0.1))
    assert (metrics["wall_ref"], metrics["setup_s"]) == (4.0, 0.8)


def test_reference_samples_during_operations_outside_their_times(
        tmp_path, monkeypatch):
    import worker

    def fake_main(argv):
        time.sleep(0.6)
        Path(argv[argv.index("--output") + 1]).write_text("{}", encoding="utf-8")
        return 0

    monkeypatch.setattr(worker.cli, "main", fake_main)
    ops = [workloads.Op(f"op{i}", ["sandbox"]) for i in range(2)]
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with worker.Reference() as reference:
        verdicts, start, end = worker.run_ops(ops, tmp_path, reference.clock)
    elapsed = time.perf_counter() - t0
    assert all(v["ok"] for v in verdicts)
    assert len(reference.samples) >= 5  # on entry, on exit, and during the ops
    seconds = sum(v["seconds"] for v in verdicts)
    assert elapsed == pytest.approx(seconds + reference.spent, abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_argv_and_nothing_else(workload):
    a = workloads.workload_ops(workload, 1)
    b = workloads.workload_ops(workload, 2)
    assert [o.name for o in a] == [o.name for o in b]
    assert [o.check for o in a] == [o.check for o in b]
    seeded = 0
    for x, y in zip(a, b):
        assert len(x.argv) == len(y.argv)
        diff = [i for i, (u, v) in enumerate(zip(x.argv, y.argv)) if u != v]
        assert all(x.argv[i - 1] == "--seed" and (x.argv[i], y.argv[i]) == ("1", "2")
                   for i in diff)
        seeded += bool(diff)
    assert seeded >= 1
    default = workloads.workload_ops(workload)
    assert any(o.argv[o.argv.index("--seed") + 1] == "42"
               for o in default if "--seed" in o.argv)
