"""``tools/bench_pairs.py``: the statistics and counts it writes into BENCH files."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSummary:
    def test_inclusive_quartiles(self, bench_pairs):
        assert bench_pairs.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_quartiles_interpolate(self, bench_pairs):
        assert bench_pairs.summary([1.0, 2.0, 3.0, 4.0]) == {
            "median": 2.5, "q1": 1.75, "q3": 3.25}

    def test_one_run_is_its_own_quartiles(self, bench_pairs):
        assert bench_pairs.summary([0.7]) == {"median": 0.7, "q1": 0.7, "q3": 0.7}


class TestCompare:
    def test_pair_counts_leave_ties_out(self, bench_pairs):
        runs = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0],
                "change": [0.5, 2.0, 3.5, 4.0, 4.0]}
        out = bench_pairs.compare(runs)
        assert out["change_lower_pairs"] == 2
        assert out["change_higher_pairs"] == 1
        assert out["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                 "runs": runs["parent"]}
        assert out["change"] == {"median": 3.5, "q1": 2.0, "q3": 4.0,
                                 "runs": runs["change"]}

    def test_pairs_are_matched_by_position(self, bench_pairs):
        out = bench_pairs.compare({"parent": [1.0, 9.0], "change": [9.0, 1.0]})
        assert (out["change_lower_pairs"], out["change_higher_pairs"]) == (1, 1)

    def test_identical_runs_count_no_pair(self, bench_pairs):
        out = bench_pairs.compare({"parent": [0.125] * 3, "change": [0.125] * 3})
        assert (out["change_lower_pairs"], out["change_higher_pairs"]) == (0, 0)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestTreeCounts:
    def test_src_lines_per_module(self, bench_pairs, tmp_path):
        _write(tmp_path / "src" / "volterra_ito" / "b.py", "x = 1\ny = 2\nz = 3\n")
        _write(tmp_path / "src" / "volterra_ito" / "a.py", "")
        _write(tmp_path / "src" / "volterra_ito" / "notes.txt", "not python\n")
        _write(tmp_path / "tests" / "test_a.py", "import a\n")
        lines = bench_pairs.src_lines(tmp_path)
        assert lines == {"a": 0, "b": 3}
        assert list(lines) == ["a", "b"]

    def test_settable_parameters(self, bench_pairs, tmp_path):
        _write(tmp_path / "src" / "volterra_ito" / "a.py", (
            "def f(a, b=1, *args, c, d=2, **kw):\n"  # b, d and **kw
            "    def inner(x=0):\n"                  # x
            "        return x\n"
            "    return inner\n"
            "async def g(y=None):\n"                 # y
            "    pass\n"
            "h = lambda z=1: z\n"                    # a lambda is no function here
            "class C:\n"
            "    def m(self, w=3):\n"                # w
            "        pass\n"))
        _write(tmp_path / "src" / "other" / "b.py", "def k(v=0, /, u=1):\n    pass\n")
        _write(tmp_path / "tools" / "c.py", "def outside(q=1):\n    pass\n")
        assert bench_pairs.settable_parameters(tmp_path) == 6 + 2


class TestNotes:
    def test_one_line_per_workload(self, bench_pairs):
        wall = bench_pairs.compare({"parent": [0.8, 0.85, 0.9],
                                    "change": [0.3, 0.28, 0.29]})
        setup = bench_pairs.compare({"parent": [0.0, 0.0], "change": [0.0, 0.0]})
        workloads = {
            "mc_terminal": {"seed": 42, "pairs": 3, "wall_ref": wall},
            "quadrature": {"seed": 42, "pairs": 2, "setup_s": setup},
        }
        assert bench_pairs.notes(workloads) == [
            "mc_terminal: wall_ref 0.85 -> 0.29 (-65.9%), change lower in 3 of 3",
            "quadrature: setup_s 0 -> 0, change lower in 0 of 2",
        ]

    def test_metrics_joined_in_order(self, bench_pairs):
        a = bench_pairs.compare({"parent": [2.0], "change": [1.0]})
        b = bench_pairs.compare({"parent": [1.0], "change": [1.5]})
        line, = bench_pairs.notes({"w": {"pairs": 1, "a": a, "b": b}})
        assert line == ("w: a 2 -> 1 (-50.0%), change lower in 1 of 1; "
                        "b 1 -> 1.5 (+50.0%), change lower in 0 of 1")


class TestMoved:
    DIGESTS = {
        "parent": {"same": [0, "a", "p"], "config": [0, "b", "q"],
                   "payload": [0, "c", "r"], "exit": [0, "d", "s"],
                   "gone": [0, "e", "t"]},
        "change": {"same": [0, "a", "p"], "config": [0, "B", "q"],
                   "payload": [0, "C", "R"], "exit": [1, "d", "s"]},
    }

    def test_full_file_moves(self, bench_pairs):
        assert bench_pairs.moved(self.DIGESTS, 1) == ["config", "exit", "gone",
                                                      "payload"]

    def test_a_config_only_move_leaves_the_payload(self, bench_pairs):
        assert bench_pairs.moved(self.DIGESTS, 2) == ["exit", "gone", "payload"]
