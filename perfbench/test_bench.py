"""The benchmark's own tests: traced work counts repeat for a seed, tracing
leaves the package as it found it, and the benchmark refuses to run
without the package sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import click
import pytest

import run

tracing, workloads = run._import_package()

# A slice of each corpus keeps the test short; K6 dominates cr-oracle's time.
SLICES = {
    "sk-search": lambda items: items[:3],
    "cr-oracle": lambda items: [it for it in items if "complete:6" not in it.name],
    "route-large": lambda items: items[:5],
}


def _patchable_state():
    """Every attribute the tracer may patch: module globals, class
    attributes and click command callbacks of the package."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if name != "crossbound" and not name.startswith("crossbound."):
            continue
        for attr, value in vars(mod).items():
            state[name, attr] = value
            if isinstance(value, type):
                state[name, attr, "class"] = dict(vars(value))
            elif isinstance(value, click.Command):
                state[name, attr, "callback"] = value.callback
    return state


def _traced_counts(workload, seed):
    tracer = tracing.Tracer()
    items = SLICES[workload](workloads.corpus(workload, seed))
    loop = run.Loop(tracer, len(items), run.Probe())
    tracer.install()
    try:
        tracer.begin_pass(record=True)
        tracer.active = True
        loop.run_pass(items, None)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert loop.errors == []
    metrics = tracer.metrics()
    return {name: metrics[name] for name in tracing.WORK_COUNTS}


@pytest.mark.parametrize("workload", sorted(SLICES))
def test_traced_work_counts_repeat(workload):
    before = _patchable_state()
    first = _traced_counts(workload, 7)
    assert _traced_counts(workload, 7) == first
    assert _patchable_state() == before
    if workload == "sk-search":
        assert first["skewness.search_nodes"] > 0 and first["oracle.configs"] == 0
    elif workload == "cr-oracle":
        assert first["oracle.configs"] > 0 and first["router.insert_edge_calls"] == 0
    else:
        assert first["embedding.fill_edges"] > 0 and first["oracle.configs"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cr-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
