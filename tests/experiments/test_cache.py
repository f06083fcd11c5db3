"""Tests for the persistent on-disk result cache and its key scheme."""

from __future__ import annotations

import pathlib
import pickle
import shutil
from dataclasses import replace

import pytest

import repro
from repro.experiments import runner as runner_mod
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    ResultCache,
    cache_enabled,
    cache_root,
    run_fingerprint,
    source_digest,
    version_stamp,
)
from repro.experiments.runner import (
    RunSettings,
    canonical_machine,
    clear_cache,
    run_benchmark,
)
from repro.sim.config import SimConfig


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh cache rooted in a per-test tmp dir, memo cleared."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    yield ResultCache.default()
    clear_cache()


def _fp(config: SimConfig, **overrides) -> str:
    identity = dict(
        workload="Kmeans",
        machine="A",
        policy="thp",
        backing_1g=False,
        config=config,
        seed=0,
        stamp="test-stamp",
    )
    identity.update(overrides)
    return run_fingerprint(**identity)


class TestFingerprint:
    def test_stable(self):
        config = SimConfig.quick()
        assert _fp(config) == _fp(SimConfig.quick())

    @pytest.mark.parametrize(
        "field,value",
        [
            # Regression: the old tuple key dropped these four fields,
            # so two configs differing only here collided.
            ("max_epochs", 7),
            ("khugepaged_batch", 9),
            ("ibs_cost_cycles", 123.0),
            ("track_access_stats", False),
            # And the ones it always covered must still matter.
            ("epoch_s", 0.125),
            ("stream_length", 512),
            ("scale", 0.5),
            ("ibs_rate", 1e-3),
            ("seed", 3),
        ],
    )
    def test_every_config_field_matters(self, field, value):
        base = SimConfig.quick()
        changed = replace(base, **{field: value})
        assert _fp(base) != _fp(changed)

    @pytest.mark.parametrize(
        "override",
        [
            {"workload": "CG.D"},
            {"machine": "B"},
            {"policy": "linux-4k"},
            {"backing_1g": True},
            {"seed": 5},
            {"stamp": "other-stamp"},
        ],
    )
    def test_identity_fields_matter(self, override):
        config = SimConfig.quick()
        assert _fp(config) != _fp(config, **override)

    def test_default_stamp_is_package_version(self, monkeypatch):
        config = SimConfig.quick()
        before = run_fingerprint("Kmeans", "A", "thp", False, config, 0)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        after = run_fingerprint("Kmeans", "A", "thp", False, config, 0)
        assert before != after


class TestCodeStamp:
    """Editing a module that can change results invalidates the cache."""

    @pytest.fixture
    def package(self, tmp_path):
        src = pathlib.Path(repro.__file__).resolve().parent
        dst = tmp_path / "repro"
        shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        return dst

    @staticmethod
    def _edit(path: pathlib.Path) -> None:
        path.write_text(path.read_text() + "\n# edited\n")

    def test_copy_matches_installed_package(self, package):
        assert source_digest(package) == source_digest(
            pathlib.Path(repro.__file__).resolve().parent
        )

    def test_engine_edit_changes_stamp(self, package):
        before = source_digest(package)
        self._edit(package / "sim" / "engine.py")
        assert source_digest(package) != before

    def test_analysis_and_cli_edits_keep_stamp(self, package):
        before = source_digest(package)
        self._edit(package / "analysis" / "rules.py")
        self._edit(package / "cli.py")
        assert source_digest(package) == before

    def test_stamp_carries_source_digest(self):
        digest = source_digest(pathlib.Path(repro.__file__).resolve().parent)
        assert version_stamp() == f"{repro.__version__}+{digest[:16]}"


class TestMemoKeyRegression:
    """The in-process memo must also use the complete config."""

    def test_memo_key_covers_dropped_fields(self):
        base = RunSettings.quick()
        for field, value in [
            ("max_epochs", 7),
            ("khugepaged_batch", 9),
            ("ibs_cost_cycles", 123.0),
            ("track_access_stats", False),
        ]:
            other = RunSettings(
                config=replace(base.config, **{field: value}), seed=base.seed
            )
            assert base.cache_key("Kmeans", "A", "thp", False) != other.cache_key(
                "Kmeans", "A", "thp", False
            ), field

    def test_no_stale_collision_between_max_epochs(self, store):
        quick = SimConfig.quick()
        short = RunSettings(config=replace(quick, max_epochs=2))
        longer = RunSettings(config=replace(quick, max_epochs=4))
        a = run_benchmark("Kmeans", "A", "linux-4k", short)
        b = run_benchmark("Kmeans", "A", "linux-4k", longer)
        assert a is not b
        assert len(a.epoch_times_s) == 2
        assert len(b.epoch_times_s) == 4

    def test_track_access_stats_not_collided(self, store):
        quick = SimConfig.quick()
        with_stats = RunSettings(config=quick)
        without = RunSettings(config=replace(quick, track_access_stats=False))
        a = run_benchmark("Kmeans", "A", "linux-4k", with_stats)
        b = run_benchmark("Kmeans", "A", "linux-4k", without)
        assert a.hot_stats is not None
        assert b.hot_stats is None


class TestResultCache:
    def test_roundtrip(self, store):
        settings = RunSettings.quick()
        result = run_benchmark("Kmeans", "A", "linux-4k", settings)
        key = settings.fingerprint("Kmeans", canonical_machine("A"), "linux-4k", False)
        loaded = store.get(key)
        assert loaded is not None
        assert loaded is not result
        assert loaded.runtime_s == result.runtime_s
        assert loaded.epoch_times_s == result.epoch_times_s
        assert loaded.bank.total("tlb_misses") == result.bank.total("tlb_misses")

    def test_hit_across_memo_clear_skips_simulation(self, store, monkeypatch):
        settings = RunSettings.quick()
        first = run_benchmark("Kmeans", "A", "linux-4k", settings)
        clear_cache()

        def _boom(*args, **kwargs):
            raise AssertionError("simulated again despite persistent hit")

        monkeypatch.setattr(runner_mod, "execute_run", _boom)
        second = run_benchmark("Kmeans", "A", "linux-4k", settings)
        assert second is not first
        assert second.runtime_s == first.runtime_s

    def test_corrupted_entry_reruns_not_crashes(self, store):
        settings = RunSettings.quick()
        run_benchmark("Kmeans", "A", "linux-4k", settings)
        key = settings.fingerprint("Kmeans", canonical_machine("A"), "linux-4k", False)
        path = store.path_for(key)
        path.write_bytes(b"not a pickle at all")
        assert store.get(key) is None
        assert not path.exists()  # bad entry dropped
        clear_cache()
        result = run_benchmark("Kmeans", "A", "linux-4k", settings)
        assert result.runtime_s > 0

    def test_wrong_type_entry_is_a_miss(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        path = store.path_for("deadbeef")
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert store.get("deadbeef") is None
        assert not path.exists()

    def test_atomic_write_leaves_no_tmp_files(self, store):
        settings = RunSettings.quick()
        run_benchmark("Kmeans", "A", "linux-4k", settings)
        leftovers = [
            p for p in store.root.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_stats_and_clear(self, store):
        settings = RunSettings.quick()
        run_benchmark("Kmeans", "A", "linux-4k", settings)
        run_benchmark("Kmeans", "A", "thp", settings)
        stats = store.stats()
        assert stats.n_entries == 2
        assert stats.total_bytes > 0
        assert stats.describe()
        assert store.clear() == 2
        assert store.stats().n_entries == 0

    def test_version_stamp_invalidates(self, store, monkeypatch):
        settings = RunSettings.quick()
        run_benchmark("Kmeans", "A", "linux-4k", settings)
        clear_cache()
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        # The old entry is unreachable under the new stamp: a fresh
        # fingerprint points at a missing file.
        key = settings.fingerprint("Kmeans", canonical_machine("A"), "linux-4k", False)
        assert store.get(key) is None

    def test_disabled_by_env(self, store, monkeypatch):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        assert not cache_enabled()
        settings = RunSettings.quick()
        run_benchmark("Kmeans", "A", "linux-4k", settings)
        assert store.stats().n_entries == 0

    def test_root_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert cache_root() == tmp_path / "elsewhere"

    def test_missing_dir_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "never-created"))
        store = ResultCache.default()
        assert store.stats().n_entries == 0
        assert store.clear() == 0
