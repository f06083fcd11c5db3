"""Tests for the in-process run memo (``runner._CACHE``).

Every lookup and store goes through ``runner._MEMO_LOCK``, and the
benchmark harness enters that lock itself to read the memo, so the
lock must never be left held and a store must be visible to the next
lookup of the same key.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.cache import CACHE_DIR_ENV
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import (
    RunSettings,
    clear_cache,
    execute_run,
    run_benchmark,
    store_result,
)


@pytest.fixture
def fresh_env(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


@pytest.fixture(scope="module")
def result():
    return execute_run("Kmeans", "A", "thp", RunSettings.quick(), False)


def _memo_size():
    with runner_mod._MEMO_LOCK:
        return len(runner_mod._CACHE)


def test_every_store_lands_in_the_memo(fresh_env, result):
    settings = RunSettings.quick()
    for i in range(50):
        store_result("Kmeans", f"m{i}", "thp", settings, False, result,
                     persist=False)
    assert _memo_size() == 50


def test_memo_hit_is_the_stored_object(fresh_env, result, monkeypatch):
    settings = RunSettings.quick()
    store_result("Kmeans", "machine-A", "thp", settings, False, result,
                 persist=False)

    def _boom(*args, **kwargs):
        raise AssertionError("re-executed a memoised run")

    monkeypatch.setattr(runner_mod, "execute_run", _boom)
    assert run_benchmark("Kmeans", "A", "thp", settings) is result


def test_memo_lock_is_free_after_runs(fresh_env):
    settings = RunSettings.quick()
    run_benchmark("Kmeans", "A", "thp", settings)
    GridRunner(settings, backend="serial").add("Kmeans", "A", "linux-4k").run()
    assert runner_mod._MEMO_LOCK.acquire(blocking=False)
    runner_mod._MEMO_LOCK.release()


def test_clear_cache_empties_the_memo(fresh_env, result):
    store_result("Kmeans", "machine-A", "thp", RunSettings.quick(), False,
                 result, persist=False)
    assert _memo_size() == 1
    clear_cache()
    assert _memo_size() == 0
