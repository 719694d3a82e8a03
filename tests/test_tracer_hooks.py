"""The benchmark's tracer still hooks into the program.

``perfbench/tracer.py`` wraps every function a module lists in ``__all__``,
the methods ``Kernel.total_l2`` and ``TestFunction.phi/dphi/d2phi``, and
reads some parameters by name for its work counts (``energy_function``'s
``grid``, the samplers' ``grid`` and ``paths``, ``equal_energy_grid``'s
``n_cells``). A change to any of these breaks ``perfbench/run.py --trace 1``;
this test makes it fail here too.
"""

import importlib.util
from pathlib import Path

import pytest

from volterra_ito import cli, itoverify, kernels

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# one run through each work-counted function
ARGVS = (
    "verify-mean --kernel rl --hurst 0.25 --grid-kind energy --grid-n 16 --phi cos",
    "simulate --kernel rl --hurst 0.25 --grid-n 8 --paths 4",
    "simulate --sampler cholesky --kernel rl --hurst 0.25 --grid-n 8 --paths 4",
    "bracket --kernel rl --hurst 0.25 --grid-n 8",
    "verify-unique --kernel rl --hurst 0.25 --grid-n 8 --phi cos --eps 0.01",
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_and_restore_undoes(tracer, capsys):
    methods = [(cls, name, cls.__dict__[name]) for cls, name in (
        (kernels.Kernel, "total_l2"), (itoverify.TestFunction, "phi"),
        (itoverify.TestFunction, "dphi"), (itoverify.TestFunction, "d2phi"))]
    entry = cli.main
    recorder = tracer.Tracer()
    restore = tracer.install(recorder)
    try:
        assert cli.main is not entry
        for argv in ARGVS:
            assert cli.main([*argv.split(), "--no-timestamp"]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert cli.main is entry
    for cls, name, original in methods:
        assert cls.__dict__[name] is original

    names = {span[1] for span in recorder.spans}
    assert set(tracer.WORK) - {"itoverify.mehler_conditional"} <= names
    assert {"kernels.Kernel.total_l2", "itoverify.TestFunction.phi",
            "cli.main"} <= names
    assert not recorder.errors
    start = min(span[2] for span in recorder.spans)
    end = max(span[3] for span in recorder.spans)
    metrics, _ = tracer.layer_metrics(recorder.spans, recorder.errors, start, end)
    assert metrics["paths.normals_drawn"] == 2 * 4 * 8
    assert metrics["bracket.energy_function.cells"] > 0
