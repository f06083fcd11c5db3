"""Tests for the experiment runner, policy registry and CLI plumbing."""

import pytest

from repro.errors import (
    ConfigurationError,
    UnknownPolicyError,
    UnknownWorkloadError,
)
from repro.core.carrefour import CarrefourPolicy
from repro.core.carrefour_lp import CarrefourLpPolicy
from repro.core.pt_replication import PtReplicationPolicy
from repro.experiments.configs import (
    POLICIES,
    make_policy,
    policy_descriptions,
)
from repro.sim.policy import PolicyStack
from repro.experiments.runner import (
    RunSettings,
    build_simulation,
    clear_cache,
    execute_run,
    improvement,
    run_benchmark,
)
from repro.sim.config import SimConfig
from repro.sim.policy import LinuxPolicy


class TestPolicyRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {
            "linux-4k",
            "thp",
            "carrefour-4k",
            "carrefour-2m",
            "carrefour-lp",
            "reactive-only",
            "conservative-only",
            "carrefour-lp-lwp",
            "autonuma",
            "autonuma-4k",
            "interleave-4k",
            "interleave-thp",
            "pt-remote",
            "replication",
            "pressure-reclaim",
        }

    def test_lwp_policy_flag(self):
        policy = make_policy("carrefour-lp-lwp")
        assert policy.lwp
        assert not make_policy("carrefour-lp").lwp

    def test_factory_types(self):
        assert isinstance(make_policy("linux-4k"), LinuxPolicy)
        assert isinstance(make_policy("carrefour-2m"), CarrefourPolicy)
        assert isinstance(make_policy("carrefour-lp"), CarrefourLpPolicy)

    def test_names_match(self):
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            make_policy("nope")

    def test_unknown_policy_suggests_closest(self):
        with pytest.raises(UnknownPolicyError, match="did you mean 'thp'"):
            make_policy("tph")
        with pytest.raises(
            UnknownPolicyError, match="did you mean 'carrefour-lp'"
        ):
            make_policy("carrefour_lp")

    def test_unknown_policy_without_close_match_lists_available(self):
        with pytest.raises(UnknownPolicyError, match="available:") as err:
            make_policy("zzzzzzzz")
        assert "did you mean" not in str(err.value)

    def test_reactive_only_flags(self):
        policy = make_policy("reactive-only")
        assert policy.reactive is not None
        assert policy.conservative is None

    def test_conservative_only_flags(self):
        policy = make_policy("conservative-only")
        assert policy.reactive is None
        assert policy.conservative is not None

    def test_replication_factories(self):
        assert isinstance(make_policy("pt-remote"), PtReplicationPolicy)
        assert isinstance(make_policy("replication"), PtReplicationPolicy)


class TestPolicyComposition:
    def test_plus_builds_stack(self):
        policy = make_policy("carrefour-2m+replication")
        assert isinstance(policy, PolicyStack)
        assert policy.name == "carrefour-2m+replication"
        assert [m.name for m in policy.members] == [
            "carrefour-2m",
            "replication",
        ]

    def test_members_get_the_seed(self):
        policy = make_policy("carrefour-2m+replication", seed=7)
        assert isinstance(policy.members[0], CarrefourPolicy)

    def test_empty_member_rejected(self):
        with pytest.raises(ConfigurationError, match="empty member"):
            make_policy("thp++replication")
        with pytest.raises(ConfigurationError, match="empty member"):
            make_policy("thp+")

    def test_duplicate_member_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate member"):
            make_policy("thp+thp")

    def test_unknown_member_names_the_culprit(self):
        with pytest.raises(UnknownPolicyError, match="replicatio"):
            make_policy("thp+replicatio")

    def test_stack_wants_ibs_if_any_member_does(self):
        assert make_policy("carrefour-2m+replication").wants_ibs()
        assert not make_policy("thp+replication").wants_ibs()


class TestPolicyDescriptions:
    def test_every_policy_documented(self):
        descriptions = policy_descriptions()
        assert set(descriptions) == set(POLICIES)
        for name, text in descriptions.items():
            assert text and text != "(undocumented)", name

    def test_descriptions_reference_the_paper_labels(self):
        descriptions = policy_descriptions()
        assert "Linux" in descriptions["linux-4k"]
        assert "Mitosis" in descriptions["replication"]


class TestRunner:
    def test_run_benchmark_cached(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        assert a is b  # memoised

    def test_cache_key_distinguishes_policy(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark("Kmeans", "A", "thp", quick_settings)
        assert a is not b

    def test_no_cache_option(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark(
            "Kmeans", "A", "linux-4k", quick_settings, use_cache=False
        )
        assert a is not b
        assert a.runtime_s == b.runtime_s  # but deterministic

    def test_improvement_signs(self, quick_settings):
        imp = improvement("Kmeans", "A", "linux-4k", "linux-4k", quick_settings)
        assert imp == pytest.approx(0.0)

    def test_unknown_workload(self, quick_settings):
        with pytest.raises(UnknownWorkloadError):
            run_benchmark("nope", "A", "thp", quick_settings)

    def test_settings_default(self):
        settings = RunSettings()
        assert settings.config.scale == 1.0

    def test_clear_cache(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        clear_cache()
        b = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        assert a is not b


class TestOneSeed:
    """``config.seed`` is a run's one seed; ``RunSettings.seed`` mirrors it."""

    def test_omitted_seed_follows_config(self):
        assert RunSettings(config=SimConfig.quick(seed=5)).seed == 5
        assert RunSettings().seed == 0

    def test_agreeing_seed_accepted(self):
        settings = RunSettings(config=SimConfig.quick(seed=3), seed=3)
        assert settings == RunSettings(config=SimConfig.quick(seed=3))

    def test_disagreeing_seed_rejected(self):
        # The default config's seed is 0: seed=5 used to build the
        # workload and policy with 5 but draw the streams with 0.
        with pytest.raises(ConfigurationError, match="config.seed=0"):
            RunSettings(seed=5)
        with pytest.raises(ConfigurationError):
            RunSettings(config=SimConfig.quick(seed=2014), seed=0)

    def test_quick_seeds_the_config(self):
        settings = RunSettings.quick(seed=7)
        assert settings.seed == settings.config.seed == 7

    def test_workload_and_streams_share_the_seed(self):
        settings = RunSettings.quick(seed=5)
        sim = build_simulation(
            "Kmeans", "A", make_policy("thp", seed=settings.seed), settings
        )
        assert sim.instance.seed == sim.config.seed == 5


class TestBuildSimulation:
    def test_entry_points_agree(self, quick_settings):
        """The cached path, the profiler and the tracer build one run."""
        from repro.sim.profile import run_profiled
        from repro.sim.trace import run_traced

        args = ("Kmeans", "A", "carrefour-2m", quick_settings)
        plain = execute_run(*args)
        profiled, _ = run_profiled(*args)
        traced, trace = run_traced(*args)
        assert trace.records
        for other in (profiled, traced):
            assert other.runtime_s == plain.runtime_s
            assert other.epoch_times_s == plain.epoch_times_s
            assert other.metrics() == plain.metrics()

    def test_backing_1g(self, quick_settings):
        policy = make_policy("linux-4k")
        plain = build_simulation("Kmeans", "A", policy, quick_settings)
        huge = build_simulation(
            "Kmeans", "A", policy, quick_settings, backing_1g=True
        )
        assert not plain.instance.backing_1g
        assert huge.instance.backing_1g
        assert huge.policy is policy
