"""Tests for the Che/LRU cache approximation, including properties.

The per-item functions come from :mod:`tests.hardware.che_oracle`, the
reference the grouped, memoized production path is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hardware import caches
from repro.hardware.caches import (
    CacheModel,
    che_characteristic_time_grouped,
    lru_group_hit_rates,
    lru_hit_rate_grouped,
)
from tests.hardware.che_oracle import (
    che_characteristic_time,
    lru_hit_rate,
    walk_l2_miss_rate,
)


class TestCharacteristicTime:
    def test_fits_in_cache_is_infinite(self):
        assert np.isinf(che_characteristic_time(np.ones(10), 10))
        assert np.isinf(che_characteristic_time(np.ones(5), 100))

    def test_empty_popularity(self):
        assert np.isinf(che_characteristic_time(np.zeros(0), 4))

    def test_zero_entries_ignored(self):
        pop = np.array([1.0, 0.0, 1.0])
        assert np.isinf(che_characteristic_time(pop, 2))

    def test_finite_when_overcommitted(self):
        t = che_characteristic_time(np.ones(1000), 100)
        assert np.isfinite(t)
        assert t > 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.ones(10), 0)

    def test_negative_popularity_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.array([1.0, -1.0]), 4)

    def test_2d_popularity_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.ones((2, 2)), 4)


class TestLruHitRate:
    def test_uniform_matches_closed_form(self):
        # For uniform popularity over U items and capacity C << U the
        # LRU hit rate approaches C/U.
        rate = lru_hit_rate(np.ones(1000), 100)
        assert rate == pytest.approx(0.1, abs=0.02)

    def test_all_fits(self):
        assert lru_hit_rate(np.ones(16), 64) == 1.0

    def test_skew_improves_hit_rate(self):
        uniform = lru_hit_rate(np.ones(1000), 50)
        ranks = np.arange(1, 1001, dtype=float)
        zipf = lru_hit_rate(1.0 / ranks, 50)
        assert zipf > uniform

    def test_empty_is_perfect(self):
        assert lru_hit_rate(np.zeros(0), 16) == 1.0

    @given(
        n=st.integers(min_value=1, max_value=2000),
        cap=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, n, cap, seed):
        rng = np.random.default_rng(seed)
        pop = rng.random(n) + 1e-9
        rate = lru_hit_rate(pop, cap)
        assert 0.0 <= rate <= 1.0

    @given(cap=st.integers(min_value=1, max_value=256))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_capacity(self, cap):
        pop = 1.0 / np.arange(1, 501, dtype=float)
        assert lru_hit_rate(pop, cap + 32) >= lru_hit_rate(pop, cap) - 1e-9


class TestGroupedForms:
    def test_grouped_matches_flat_uniform(self):
        flat = lru_hit_rate(np.ones(1000), 64)
        grouped = lru_hit_rate_grouped(np.array([1000.0]), np.array([1.0]), 64)
        assert grouped == pytest.approx(flat, abs=1e-6)

    def test_grouped_matches_flat_two_groups(self):
        # 100 hot items carrying 80% of traffic + 900 cold items.
        pop = np.concatenate([np.full(100, 0.8 / 100), np.full(900, 0.2 / 900)])
        flat = lru_hit_rate(pop, 128)
        grouped = lru_hit_rate_grouped(
            np.array([100.0, 900.0]), np.array([0.8, 0.2]), 128
        )
        assert grouped == pytest.approx(flat, abs=1e-6)

    def test_grouped_char_time_all_fits(self):
        t = che_characteristic_time_grouped(
            np.array([4.0, 4.0]), np.array([0.5, 0.5]), 16
        )
        assert np.isinf(t)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time_grouped(np.ones(2), np.ones(3), 4)

    def test_per_group_hit_rates_align(self):
        counts = np.array([10.0, 1000.0])
        weights = np.array([0.9, 0.1])
        rates = lru_group_hit_rates(counts, weights, 64)
        assert rates.shape == (2,)
        # The small hot group should hit far more often than the big
        # cold one.
        assert rates[0] > rates[1]

    def test_per_group_dead_groups_hit(self):
        counts = np.array([0.0, 100.0])
        weights = np.array([0.5, 0.0])
        rates = lru_group_hit_rates(counts, weights, 16)
        assert rates[0] == 1.0
        assert rates[1] == 1.0

    @given(
        hot=st.integers(min_value=1, max_value=200),
        cold=st.integers(min_value=1, max_value=5000),
        cap=st.integers(min_value=8, max_value=512),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_bounds_property(self, hot, cold, cap):
        rates = lru_group_hit_rates(
            np.array([hot, cold], dtype=float), np.array([0.7, 0.3]), cap
        )
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)


class TestCacheModel:
    def test_small_pte_set_hits(self):
        model = CacheModel(l2_lines_for_walks=512)
        rate = walk_l2_miss_rate(model, np.ones(100))
        assert rate == pytest.approx(0.0, abs=0.05)

    def test_huge_pte_set_misses(self):
        model = CacheModel(l2_lines_for_walks=512)
        assert walk_l2_miss_rate(model, np.ones(100_000)) > 0.8

    def test_empty_counts(self):
        model = CacheModel()
        assert walk_l2_miss_rate(model, np.zeros(0)) == 0.0

    def test_grouped_matches_flat(self):
        model = CacheModel(l2_lines_for_walks=256)
        flat = walk_l2_miss_rate(model, np.ones(8000))
        grouped = model.walk_l2_miss_rate_grouped(
            np.array([8000.0]), np.array([1.0])
        )
        assert grouped == pytest.approx(flat, abs=0.02)

    def test_grouped_empty(self):
        model = CacheModel()
        assert model.walk_l2_miss_rate_grouped(np.zeros(0), np.zeros(0)) == 0.0

    def test_miss_rate_monotone_in_working_set(self):
        model = CacheModel(l2_lines_for_walks=512)
        small = model.walk_l2_miss_rate_grouped(np.array([1e3]), np.array([1.0]))
        big = model.walk_l2_miss_rate_grouped(np.array([1e6]), np.array([1.0]))
        assert big >= small


#: The three grouped entry points, each as ``f(counts, weights, capacity)``.
GROUPED_ENTRY_POINTS = {
    "lru_hit_rate_grouped": lru_hit_rate_grouped,
    "lru_group_hit_rates": lru_group_hit_rates,
    "walk_l2_miss_rate_grouped": lambda counts, weights, capacity: CacheModel(
        l2_lines_for_walks=capacity
    ).walk_l2_miss_rate_grouped(counts, weights),
}


@pytest.mark.parametrize("entry", sorted(GROUPED_ENTRY_POINTS))
class TestGroupedValidation:
    """Every grouped entry point validates before it filters dead groups."""

    def test_negative_count_rejected(self, entry):
        with pytest.raises(ConfigurationError, match="non-negative"):
            GROUPED_ENTRY_POINTS[entry](
                np.array([10.0, -20.0, 30.0]), np.ones(3), 4
            )

    def test_negative_weight_rejected(self, entry):
        with pytest.raises(ConfigurationError, match="non-negative"):
            GROUPED_ENTRY_POINTS[entry](
                np.array([10.0, 20.0]), np.array([0.5, -0.5]), 4
            )

    @pytest.mark.parametrize("n_weights", [2, 4])
    def test_misaligned_groups_rejected(self, entry, n_weights):
        with pytest.raises(ConfigurationError, match="align"):
            GROUPED_ENTRY_POINTS[entry](
                np.array([10.0, 20.0, 30.0]), np.ones(n_weights), 4
            )

    def test_nonpositive_capacity_rejected_without_live_groups(self, entry):
        with pytest.raises(ConfigurationError, match="capacity"):
            GROUPED_ENTRY_POINTS[entry](np.zeros(2), np.zeros(2), 0)


class TestSolveMemo:
    COUNTS = np.array([100.0, 900.0, 4000.0])
    WEIGHTS = np.array([0.7, 0.2, 0.1])

    def test_warm_lookup_is_bit_identical_to_cold_solve(self, che_solves):
        cold = lru_hit_rate_grouped(self.COUNTS, self.WEIGHTS, 128)
        cold_rates = lru_group_hit_rates(self.COUNTS, self.WEIGHTS, 128)
        warm = lru_hit_rate_grouped(self.COUNTS, self.WEIGHTS, 128)
        warm_rates = lru_group_hit_rates(self.COUNTS, self.WEIGHTS, 128)
        assert len(che_solves) == 1
        assert warm.hex() == cold.hex()
        assert [r.hex() for r in warm_rates] == [r.hex() for r in cold_rates]
        solved = che_characteristic_time_grouped(self.COUNTS, self.WEIGHTS, 128)
        assert caches._SOLVE_MEMO.popitem()[1].hex() == solved.hex()

    def test_dead_groups_share_the_live_key(self, che_solves):
        lru_hit_rate_grouped(self.COUNTS, self.WEIGHTS, 128)
        lru_group_hit_rates(
            np.append(self.COUNTS, 0.0), np.append(self.WEIGHTS, 0.5), 128
        )
        CacheModel(l2_lines_for_walks=128).walk_l2_miss_rate_grouped(
            np.append(self.COUNTS, 8.0), np.append(self.WEIGHTS, 0.0)
        )
        # The walk model folds pages into PTE lines: one more input.
        assert len(che_solves) == 2

    def test_permuted_weights_do_not_collide(self, che_solves):
        permuted = self.WEIGHTS[[2, 0, 1]]
        a = lru_group_hit_rates(self.COUNTS, self.WEIGHTS, 128)
        b = lru_group_hit_rates(self.COUNTS, permuted, 128)
        assert len(che_solves) == 2
        assert not np.array_equal(a, b)

    def test_capacity_does_not_collide(self, che_solves):
        small = lru_hit_rate_grouped(self.COUNTS, self.WEIGHTS, 64)
        large = lru_hit_rate_grouped(self.COUNTS, self.WEIGHTS, 512)
        assert len(che_solves) == 2
        assert large > small

    def test_memo_never_exceeds_its_bound(self, che_solves, monkeypatch):
        monkeypatch.setattr(caches, "_SOLVE_MEMO_MAX", 8)
        for n in range(1, 40):
            counts = np.array([float(n), 1000.0])
            cold = lru_hit_rate_grouped(counts, self.WEIGHTS[:2], 16)
            assert len(caches._SOLVE_MEMO) <= 8
            assert lru_hit_rate_grouped(counts, self.WEIGHTS[:2], 16) == cold
        assert len(che_solves) == 39

    @pytest.mark.parametrize("entry", sorted(GROUPED_ENTRY_POINTS))
    def test_invalid_inputs_raise_after_warm_up(self, che_solves, entry):
        fn = GROUPED_ENTRY_POINTS[entry]
        counts = np.array([10.0, 20.0, 30.0])
        fn(counts, np.ones(3), 4)
        fn(np.array([10.0, 30.0]), np.ones(2), 4)
        assert caches._SOLVE_MEMO
        with pytest.raises(ConfigurationError):
            fn(np.array([10.0, -20.0, 30.0]), np.ones(3), 4)
        with pytest.raises(ConfigurationError):
            fn(counts, np.ones(2), 4)
        with pytest.raises(ConfigurationError):
            fn(counts, np.ones(3), 0)


class TestGroupedMatchesOracle:
    """With one item per group the grouped form *is* the per-item form.

    Tolerance: 1e-12 absolute on hit rates in [0, 1].  Both paths run
    the same bisection over the same normalised probabilities, so they
    are expected to agree to the last bit; the tolerance only absorbs
    summation-order differences, never a modelling difference.
    """

    TOL = 1e-12

    @given(
        n=st.integers(min_value=1, max_value=600),
        cap=st.integers(min_value=1, max_value=256),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_counts_match_per_item_oracle(self, n, cap, seed):
        rng = np.random.default_rng(seed)
        pop = rng.random(n) * (rng.random(n) > 0.1)
        expected = lru_hit_rate(pop, cap)
        t_c = che_characteristic_time(pop, cap)
        ones = np.ones(n)
        for _ in range(2):  # a cold solve, then a warm memo hit
            assert lru_hit_rate_grouped(ones, pop, cap) == pytest.approx(
                expected, abs=self.TOL
            )
            rates = lru_group_hit_rates(ones, pop, cap)
            live = pop > 0
            assert np.all(rates[~live] == 1.0)
            per_item = (
                np.ones(int(live.sum()))
                if np.isinf(t_c)
                else -np.expm1(-pop[live] / pop[live].sum() * t_c)
            )
            np.testing.assert_allclose(rates[live], per_item, rtol=0, atol=self.TOL)
