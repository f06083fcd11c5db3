"""Batch deciders against their page-at-a-time references.

Carrefour and AutoNUMA decide a whole interval at once and yield one
``MigratePages`` batch.  The references below are the page-at-a-time
loops they replaced, driving the oracle migration directly; every
interval must leave the same mappings, the same decider history
(interleave set, RNG state, streak table) and the same notes.
"""

import collections
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.autonuma import AutoNumaConfig, AutoNumaPolicy
from repro.core.carrefour import CarrefourConfig, CarrefourEngine
from repro.core.metrics import PageSampleTable
from repro.experiments.configs import make_policy
from repro.experiments.runner import RunSettings
from repro.hardware.ibs import IbsSamples
from repro.hardware.machines import machine_by_name
from repro.sim.engine import ActionExecutor, Simulation, apply_decisions
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_2M, PAGE_4K
from repro.vm.thp import ThpState
from repro.workloads.registry import get_workload

from tests.vm.migration_oracle import migrate_one

N_CHUNKS = 6


def make_host(n_nodes, seed):
    """4KB chunks (one half unmapped) and two huge chunks, small nodes."""
    phys = PhysicalMemory([5 * PAGE_2M] * n_nodes)
    asp = AddressSpace(N_CHUNKS * GRANULES_PER_2M, phys)
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, n_nodes, 4 * GRANULES_PER_2M).astype(np.int8)
    nodes[: 2 * GRANULES_PER_2M] = 0  # master-initialised half
    asp.premap_pattern_4k(0, nodes[: 3 * GRANULES_PER_2M + GRANULES_PER_2M // 2])
    asp.premap_pattern_2m(4, np.array([0, n_nodes - 1], dtype=np.int8))
    return SimpleNamespace(
        asp=asp, thp=ThpState(), machine=SimpleNamespace(n_nodes=n_nodes)
    )


def make_samples(n_nodes, seed, n=3000):
    """Samples with private (one node) and shared pages, some stores."""
    rng = np.random.default_rng(seed + 1)
    granule = rng.integers(0, N_CHUNKS * GRANULES_PER_2M, n)
    private = granule % 3 == 0
    node = np.where(private, granule % n_nodes, rng.integers(0, n_nodes, n))
    return IbsSamples(
        granule=granule.astype(np.int64),
        accessing_node=node.astype(np.int8),
        home_node=np.zeros(n, dtype=np.int8),
        thread=node.astype(np.int16),
        from_dram=np.ones(n, dtype=bool),
        is_write=(granule % 5 == 0) & (rng.random(n) < 0.5),
    )


def reference_placement(engine, table, asp, n_nodes):
    """Carrefour's page-at-a-time placement loop; returns its notes."""
    cfg = engine.config
    notes = []
    totals = table.totals
    eligible = totals >= cfg.min_samples_per_page
    order = np.argsort(-totals)
    order = order[eligible[order]]
    single = table.single_node_mask()
    dominant = table.dominant_nodes()
    read_only = table.read_only_mask()
    replication_ok = cfg.replication_enabled and engine._memory_headroom(asp)
    candidates = []
    budget = cfg.max_migration_bytes_per_interval
    for idx in order:
        if budget <= 0:
            notes.append("migration budget exhausted")
            break
        page_id = int(table.ids[idx])
        if not asp.backing_is_live(page_id):
            continue
        if single[idx]:
            target = int(dominant[idx])
            engine._interleaved.discard(page_id)
        else:
            if (
                replication_ok
                and read_only[idx]
                and totals[idx] >= cfg.replication_min_samples
            ):
                candidates.append(page_id)
            if page_id in engine._interleaved:
                continue
            target = int(engine._rng.integers(0, n_nodes))
            engine._interleaved.add(page_id)
        budget -= migrate_one(asp, page_id, target)
    for page_id in candidates:
        if budget <= 0:
            notes.append("replication deferred (budget)")
            break
        if not asp.backing_is_live(page_id):
            continue
        copied = asp.replicate_backing(page_id)
        if copied:
            budget -= copied
            engine._interleaved.discard(page_id)
    return notes


def reference_autonuma(policy, asp, table):
    """AutoNUMA's page-at-a-time two-stage filter; returns its notes."""
    notes = []
    dominant = table.dominant_nodes()
    budget = policy.config.max_migration_bytes_per_interval
    for idx in np.argsort(-table.totals):
        if budget <= 0:
            notes.append("migration budget exhausted")
            break
        page_id = int(table.ids[idx])
        if not asp.backing_is_live(page_id):
            policy._streaks.pop(page_id, None)
            continue
        node = int(dominant[idx])
        last, streak = policy._streaks.get(page_id, (-1, 0))
        streak = streak + 1 if node == last else 1
        policy._streaks[page_id] = (node, streak)
        if streak < policy.config.migrate_streak:
            continue
        budget -= migrate_one(asp, page_id, node)
    return notes


def same_mappings(a, b):
    assert np.array_equal(a.node4k, b.node4k)
    assert np.array_equal(a.node2m, b.node2m)
    assert np.array_equal(a.replicated_4k, b.replicated_4k)
    assert np.array_equal(a.replicated_2m, b.replicated_2m)
    for x, y in zip(a.phys.nodes, b.phys.nodes):
        assert x.free_bytes == y.free_bytes
        assert x.pool_window() == y.pool_window()


budgets = st.one_of(
    st.integers(0, 40).map(lambda n: n * PAGE_4K),
    st.integers(0, 3 * PAGE_2M),
    st.just(512 * 1024 * 1024),
)


class TestCarrefourMatchesReference:
    @given(
        n_nodes=st.integers(2, 4),
        seed=st.integers(0, 2**16),
        budget=budgets,
        replication=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_intervals(self, n_nodes, seed, budget, replication):
        config = CarrefourConfig(
            max_migration_bytes_per_interval=budget,
            replication_enabled=replication,
            replication_min_free_fraction=0.0,
        )
        batch_host, ref_host = make_host(n_nodes, seed), make_host(n_nodes, seed)
        batch, ref = CarrefourEngine(config, seed), CarrefourEngine(config, seed)
        for interval in range(3):
            samples = make_samples(n_nodes, seed + interval)
            table = PageSampleTable.from_samples(samples, batch_host.asp, n_nodes)
            summary, _ = apply_decisions(
                batch_host, batch.decide_placement(table, batch_host.asp, n_nodes)
            )
            ref_table = PageSampleTable.from_samples(samples, ref_host.asp, n_nodes)
            notes = reference_placement(ref, ref_table, ref_host.asp, n_nodes)
            assert summary.notes == notes
            same_mappings(batch_host.asp, ref_host.asp)
            assert batch._interleaved == ref._interleaved
            assert batch._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_truncated_batch_rewinds_rng(self):
        # A budget of one 4KB page: the first move exhausts it.  The
        # batch drew targets for every shared page, but only the draws
        # before the cutoff count.
        config = CarrefourConfig(
            max_migration_bytes_per_interval=PAGE_4K, replication_enabled=False
        )
        host, ref_host = make_host(4, 3), make_host(4, 3)
        batch, ref = CarrefourEngine(config, 3), CarrefourEngine(config, 3)
        samples = make_samples(4, 3)
        table = PageSampleTable.from_samples(samples, host.asp, 4)
        summary, _ = apply_decisions(
            host, batch.decide_placement(table, host.asp, 4)
        )
        notes = reference_placement(ref, table, ref_host.asp, 4)
        assert notes == ["migration budget exhausted"]
        assert summary.notes == notes
        assert 0 < summary.bytes_migrated <= PAGE_2M
        same_mappings(host.asp, ref_host.asp)
        assert batch._rng.bit_generator.state == ref._rng.bit_generator.state


class TestAutoNumaMatchesReference:
    @given(
        n_nodes=st.integers(2, 4),
        seed=st.integers(0, 2**16),
        budget=budgets,
        streak=st.integers(1, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_intervals(self, n_nodes, seed, budget, streak):
        config = AutoNumaConfig(
            migrate_streak=streak, max_migration_bytes_per_interval=budget
        )
        batch_host, ref_host = make_host(n_nodes, seed), make_host(n_nodes, seed)
        batch, ref = AutoNumaPolicy(config=config), AutoNumaPolicy(config=config)
        for interval in range(3):
            samples = make_samples(n_nodes, seed + interval % 2)
            summary, _ = apply_decisions(
                batch_host, batch.decide(batch_host, samples, None)
            )
            table = PageSampleTable.from_samples(samples, ref_host.asp, n_nodes)
            notes = reference_autonuma(ref, ref_host.asp, table)
            assert summary.notes == notes
            same_mappings(batch_host.asp, ref_host.asp)
            assert batch._streaks == ref._streaks


class TestRngPin:
    """The batch draw relies on this numpy behaviour; pin it."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_vector_draw_equals_scalar_draws(self, n):
        vector, scalar = np.random.default_rng(7), np.random.default_rng(7)
        drawn = vector.integers(0, n, size=1000)
        expected = [int(scalar.integers(0, n)) for _ in range(1000)]
        assert drawn.tolist() == expected
        assert vector.bit_generator.state == scalar.bit_generator.state


class TestOneDispatchPerInterval:
    def test_quick_cg_d_on_b(self, monkeypatch):
        settings_ = RunSettings.quick()
        topo = machine_by_name("B")
        instance = get_workload("CG.D").instantiate(
            topo, settings_.config.scale, settings_.seed
        )
        dispatched = collections.Counter()
        execute = ActionExecutor._execute

        def counting(self, decision, summary):
            dispatched[type(decision).__name__] += 1
            return execute(self, decision, summary)

        monkeypatch.setattr(ActionExecutor, "_execute", counting)
        sim = Simulation(
            topo,
            instance,
            make_policy("carrefour-lp", seed=settings_.seed),
            config=settings_.config,
        )
        sim.run()
        intervals = len(sim.result().action_log)
        seen = sim.executor.decisions_seen
        # Every migration of an interval goes through one handler call,
        # while the executor still counts each page it reached.
        assert 0 < dispatched["MigratePages"] <= intervals
        assert seen >= 100_000
        assert sum(dispatched.values()) * 100 < seen
