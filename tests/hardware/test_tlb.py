"""Tests for the multi-size TLB model.

``epoch_result`` and ``split_counts_by_size`` are the per-page reference
path, kept in :mod:`tests.hardware.che_oracle`.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.caches import CacheModel
from repro.hardware.tlb import TlbModel, TlbSpec
from repro.vm.layout import PageSize
from tests.hardware.che_oracle import epoch_result, split_counts_by_size


@pytest.fixture
def model():
    return TlbModel(TlbSpec(), CacheModel())


class TestTlbSpec:
    def test_defaults(self):
        spec = TlbSpec()
        assert spec.entries_for(PageSize.SIZE_4K) == 1024
        assert spec.entries_for(PageSize.SIZE_2M) == 128
        assert spec.entries_for(PageSize.SIZE_1G) == 16

    def test_invalid_entries(self):
        with pytest.raises(ConfigurationError):
            TlbSpec(entries_4k=0)

    def test_negative_walk_cost(self):
        with pytest.raises(ConfigurationError):
            TlbSpec(walk_base_cycles=-1)


class TestEpochResult:
    def test_no_accesses(self, model):
        res = epoch_result(model, {}, 0.0)
        assert res.misses == 0.0
        assert res.walk_cycles == 0.0

    def test_fitting_working_set_no_misses(self, model):
        counts = {PageSize.SIZE_4K: np.ones(100)}
        res = epoch_result(model, counts, 1e6)
        assert res.misses == pytest.approx(0.0)

    def test_large_working_set_misses(self, model):
        counts = {PageSize.SIZE_4K: np.ones(100_000)}
        res = epoch_result(model, counts, 1e6)
        assert res.misses > 0.9e6
        assert res.miss_rate > 0.9
        assert res.walk_cycles > 0

    def test_2m_coverage_beats_4k(self, model):
        # Same working set expressed as 512x fewer 2MB translations.
        res_4k = epoch_result(model, {PageSize.SIZE_4K: np.ones(50_000)}, 1e6)
        res_2m = epoch_result(
            model, {PageSize.SIZE_2M: np.ones(50_000 // 512)}, 1e6
        )
        assert res_2m.misses < res_4k.misses * 0.05

    def test_negative_accesses_rejected(self, model):
        with pytest.raises(ConfigurationError):
            epoch_result(model, {}, -1.0)

    def test_coverage_bytes(self, model):
        assert model.coverage_bytes(PageSize.SIZE_4K) == 1024 * 4096
        assert model.coverage_bytes(PageSize.SIZE_2M) == 128 * 2 * 1024 * 1024


class TestEpochResultGrouped:
    def test_run_length_divides_misses(self, model):
        base = model.epoch_result_grouped(
            {PageSize.SIZE_4K: (np.array([50_000.0]), np.array([1.0]), np.array([1.0]))},
            1e6,
        )
        long_runs = model.epoch_result_grouped(
            {PageSize.SIZE_4K: (np.array([50_000.0]), np.array([1.0]), np.array([100.0]))},
            1e6,
        )
        assert long_runs.misses < base.misses / 50

    def test_unit_groups_match_per_page_oracle(self, model):
        """One page per group and unit runs is the per-page model; the
        miss counts agree (the L2-walk fold differs by design: the
        grouped form cannot see which pages share a PTE line)."""
        rng = np.random.default_rng(3)
        by_size = {
            PageSize.SIZE_4K: rng.random(3000) + 0.01,
            PageSize.SIZE_2M: rng.random(300) + 0.01,
        }
        oracle = epoch_result(model, by_size, 1e6)
        grouped = model.epoch_result_grouped(
            {
                size: (np.ones(pop.size), pop, np.ones(pop.size))
                for size, pop in by_size.items()
            },
            1e6,
        )
        assert grouped.misses == pytest.approx(oracle.misses, rel=1e-9)
        assert grouped.miss_rate == pytest.approx(oracle.miss_rate, rel=1e-9)

    def test_empty_groups(self, model):
        res = model.epoch_result_grouped({}, 1e6)
        assert res.misses == 0.0

    def test_mixed_sizes_share_weighting(self, model):
        groups = {
            PageSize.SIZE_4K: (
                np.array([100_000.0]),
                np.array([0.5]),
                np.array([1.0]),
            ),
            PageSize.SIZE_2M: (
                np.array([10.0]),
                np.array([0.5]),
                np.array([1.0]),
            ),
        }
        res = model.epoch_result_grouped(groups, 1e6)
        # Only the 4K half should miss; 10 huge pages fit their array.
        assert 0.3e6 < res.misses < 0.55e6

    def test_miss_rate_bounded(self, model):
        groups = {
            PageSize.SIZE_4K: (
                np.array([1e7]),
                np.array([1.0]),
                np.array([1.0]),
            )
        }
        res = model.epoch_result_grouped(groups, 1e6)
        assert res.miss_rate <= 1.0


class TestSplitCountsBySize:
    def test_grouping(self):
        ids = np.array([1, 1, 2, 3, 3, 3])
        sizes = np.array(
            [
                int(PageSize.SIZE_4K),
                int(PageSize.SIZE_4K),
                int(PageSize.SIZE_4K),
                int(PageSize.SIZE_2M),
                int(PageSize.SIZE_2M),
                int(PageSize.SIZE_2M),
            ]
        )
        out = split_counts_by_size(ids, sizes)
        assert sorted(out[PageSize.SIZE_4K]) == [1.0, 2.0]
        assert list(out[PageSize.SIZE_2M]) == [3.0]

    def test_empty(self):
        out = split_counts_by_size(np.empty(0, dtype=int), np.empty(0, dtype=int))
        assert out == {}
