"""The names perfbench/ reaches into still resolve.

The benchmark times the program from outside: `perfbench/tracer.py` swaps
timing wrappers in for module and class attributes, `selftest.py` patches
two measurements to plant its mutant, and `setup_probe.py` times three
set-up calls.  Each finds its target by name, so deleting or renaming one
of them passes every other test and then stops the benchmark at its first
traced op.  These tests only read perfbench/.
"""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from filtropt import cli, complexity, context_for, experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracer", "selftest")}
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_target_resolves(perfbench):
    tracer = perfbench["tracer"]
    targets = tracer.pipeline_targets(tracer.Tracer())
    assert len(targets) == 14
    for owner, attr, wrapper in targets:
        assert callable(getattr(owner, attr)) and callable(wrapper), attr
    # the vector-hit counter tests membership in the lab's cache by mask
    assert 1 not in experiment._SequenceLab(context_for(3))._vectors


@pytest.mark.parametrize("argv", [
    ["enumerate", "-L", "3", "-k", "2"],
    ["sample", "-L", "5", "-k", "2", "--trials", "4"],
    ["analyze", "-L", "5", "--filter", "x0*x1 + x2"],
], ids=lambda argv: argv[0])
def test_traced_op_runs_through_every_wrapper_it_crosses(perfbench, argv, capsys):
    tracer = perfbench["tracer"]
    tr = tracer.Tracer()
    targets = tracer.pipeline_targets(tr)
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    with tracer.installed(targets):
        assert cli.main(argv) == 0
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals
    json.loads(capsys.readouterr().out)
    crossed = {"enumerate": "experiment", "sample": "experiment.vector",
               "analyze": "spectral.dft"}[argv[0]]
    assert tr.calls(crossed) >= 1
    if argv[0] == "sample":
        assert "vector_hits" in tr.counters
    if argv[0] == "analyze":
        assert tr.counters["dft_lines"] >= 1


def test_selftest_mutant_patches_resolve(perfbench):
    originals = (experiment.periodic_lc_packed, complexity.linear_complexity_periodic)
    with perfbench["selftest"].lc_off_by_one():
        assert experiment.periodic_lc_packed(0b1, 1) == 2
        assert complexity.linear_complexity_periodic([1]) == 2
    assert (experiment.periodic_lc_packed, complexity.linear_complexity_periodic) == originals


def test_setup_probe_runs_against_this_checkout():
    run = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"), "5", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert Path(probe["module"]).resolve().is_relative_to(PERFBENCH.parent / "src")
