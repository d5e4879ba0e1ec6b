"""The benchmark's warm-up requests still reach their known answers.

Sets up every workload of ``perfbench/workloads.py`` in process, as the
benchmark does: builds its first pass and runs its ``warmup()`` requests, so
that a change to the package that breaks the benchmark shows up in the test
suite.  Setting up ``cli-fixtures`` writes its seeded malformed files under
the ignored ``.perfbench-out/``.  Also checks that every function the
per-layer tracing rebinds still exists, and that ``perfbench/answers.json``
records an answer for exactly the ``cli-fixtures`` pairs of a command and a
top-level fixture.
"""
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["deform", "crosscheck-actions", "cli-fixtures"])
def test_warmup_requests_verify(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    workload = workloads.WORKLOADS[name](1, workloads.load_answers())
    # the set-up builds the first pass before it runs the warm-up
    assert workload.requests()
    requests = workload.warmup()
    assert requests
    for request in requests:
        assert request.verify(request.run()) == "ok", request.label


def test_cli_fixture_answers_are_exactly_the_command_fixture_pairs(monkeypatch):
    # a top-level fixture with no recorded answer would show up only as
    # failed cli-fixtures requests of the benchmark, and an answer with no
    # pair is stale; fixtures in subdirectories are not benchmark input
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    fixtures = sorted(path.name for path in workloads.FIXTURES.glob("*.lif"))
    commands = workloads.CliFixtures.commands
    pairs = {f"{command} {fixture}" for command in commands for fixture in fixtures}
    answers = set(workloads.load_answers()["cli-fixtures"])
    assert sorted(pairs - answers) == [] and sorted(answers - pairs) == []


def test_traced_layers_resolve_to_callables(monkeypatch):
    # a renamed traced function would otherwise break only ``--trace 1``
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    for module, qualname, *_ in tracing.layers():
        owner = importlib.import_module(f"linfty.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, qualname)
