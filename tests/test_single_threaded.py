"""The program runs on the calling thread alone.

Neither a serial grid nor a colocation scenario starts a thread: grid
cells run in the caller (or, with ``jobs > 1``, in forked workers),
and stream banks fill their rows on demand in the thread that reads
them.  This is the property that lets the whole-program linter carry
no concurrency analysis.
"""

from __future__ import annotations

import ast
import os
import pathlib
import threading

import pytest

import repro
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSettings, clear_cache
from repro.experiments.scenario_runner import execute_scenario
from repro.hardware.machines import machine_by_name
from repro.scenarios import ScenarioConfig
from repro.sim.config import SimConfig
from repro.workloads.registry import get_workload
from repro.workloads.streambank import clear_stream_banks, get_stream_bank

SRC = pathlib.Path(repro.__file__).parent


@pytest.fixture
def thread_watch(monkeypatch):
    """Cold memo and banks on a host with spare cores; records every
    thread started meanwhile, however short-lived."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    clear_cache()
    clear_stream_banks()
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    before = set(threading.enumerate())
    yield started, before
    clear_cache()
    clear_stream_banks()


def test_serial_grid_starts_no_thread(thread_watch):
    started, before = thread_watch
    grid = GridRunner(RunSettings.quick(), jobs=1)
    grid.add("Kmeans", "A", "linux-4k").add("Kmeans", "A", "thp")
    results = grid.run(use_cache=False)
    assert len(results) == 2
    assert started == []
    assert set(threading.enumerate()) == before


def test_two_tenant_scenario_starts_no_thread(thread_watch):
    started, before = thread_watch
    scenario = ScenarioConfig(
        arrival="fixed-trace",
        machine="A",
        trace=((0, "SSCA.20", "carrefour-lp"), (1, "Kmeans", "thp")),
        max_tenants=2,
        tenant_epochs=3,
        seed=0,
    )
    result = execute_scenario(scenario, SimConfig.quick(seed=0))
    assert len(result.tenants) == 2
    assert started == []
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("value", ["1", "auto"])
def test_retired_prefetch_knob_starts_no_thread(value, thread_watch,
                                                monkeypatch):
    """``REPRO_STREAM_PREFETCH`` used to start a prefill worker; it is
    now ignored."""
    started, before = thread_watch
    monkeypatch.setenv("REPRO_STREAM_PREFETCH", value)
    grid = GridRunner(RunSettings.quick(), jobs=1)
    grid.add("Kmeans", "A", "thp")
    grid.run(use_cache=False)
    assert started == []
    assert set(threading.enumerate()) == before


def test_stream_bank_fill_starts_no_thread(thread_watch):
    """Filling every row of a bank happens in the calling thread."""
    started, before = thread_watch
    instance = get_workload("Kmeans").instantiate(
        machine_by_name("A"), SimConfig.quick().scale, 0
    )
    bank = get_stream_bank(instance, 0, 64)
    for epoch in range(instance.total_epochs):
        bank.epoch_arrays(epoch)
        bank.sharing_packed(epoch)
    assert all(bool(block.filled.all()) for block in bank._blocks.values())
    assert started == []
    assert set(threading.enumerate()) == before


def test_only_the_runner_imports_threading():
    """``runner._MEMO_LOCK`` is the one threading object left in the
    package (the benchmark harness enters it to read the memo)."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "threading" for name in names):
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["experiments/runner.py"]
