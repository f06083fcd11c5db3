"""The batched migration kernel against the page-at-a-time oracle.

``AddressSpace.migrate_backing`` applies runs of 4KB moves as array
operations and falls back to scalar steps at small-frame pool
boundaries.  These tests run the same sequence through the kernel and
through :func:`migration_oracle.migrate_in_order` on two identically
built address spaces and require the same bytes per element, the same
mappings, and the same buddy ``alloc``/``free`` call sequence per node.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.errors import AllocationError, MappingError
from repro.vm.address_space import AddressSpace, BACKING_ID_2M_OFFSET
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_2M, PAGE_4K

from tests.vm.migration_oracle import migrate_in_order

N_CHUNKS = 4
KINDS = ("empty", "huge", "uniform", "mixed", "sparse")


def log_buddy_calls(asp):
    """Record every buddy alloc/free per node (instance-level wrappers)."""
    log = [[] for _ in range(asp.n_nodes)]
    for node, mem in enumerate(asp.phys.nodes):
        buddy = mem.buddy

        def alloc(order, _buddy=buddy, _log=log[node], _alloc=buddy.alloc):
            start = _alloc(order)
            _log.append(("alloc", order, start))
            return start

        def free(start, order, _log=log[node], _free=buddy.free):
            _log.append(("free", start, order))
            _free(start, order)

        buddy.alloc = alloc
        buddy.free = free
    return log


def build(spec):
    """A deterministic address space from a drawn scenario ``spec``."""
    n_nodes, frames, layout, seed, fillers, n_replicas = spec
    phys = PhysicalMemory([frames * PAGE_4K] * n_nodes)
    asp = AddressSpace(N_CHUNKS * GRANULES_PER_2M, phys)
    rng = np.random.default_rng(seed)
    for chunk, (kind, node) in enumerate(layout):
        base = chunk * GRANULES_PER_2M
        if kind == "huge":
            asp.premap_pattern_2m(chunk, np.array([node], dtype=np.int8))
        elif kind == "uniform":
            asp.premap_pattern_4k(base, np.full(GRANULES_PER_2M, node, np.int8))
        elif kind == "mixed":
            nodes = rng.integers(0, n_nodes, GRANULES_PER_2M).astype(np.int8)
            asp.premap_pattern_4k(base, nodes)
        elif kind == "sparse":
            size = int(rng.integers(1, 400))
            picks = rng.choice(GRANULES_PER_2M, size=size, replace=False)
            asp.fault_in(base + np.sort(picks), node, thp_alloc=False)
    for node, share in fillers:
        if node < n_nodes:
            free = phys[node].free_bytes // PAGE_4K
            phys[node].alloc_small(int(free * share))
    live = live_ids(asp)
    for backing_id in rng.permutation(live)[:n_replicas]:
        asp.replicate_backing(int(backing_id))
    return asp


def live_ids(asp):
    small = np.flatnonzero(asp.node4k >= 0)
    huge = np.flatnonzero(asp.huge) + BACKING_ID_2M_OFFSET
    return np.concatenate([small, huge]).astype(np.int64)


def allocator_state(asp):
    nodes = []
    for mem in asp.phys.nodes:
        nodes.append(
            (
                mem._pool_free,
                list(mem._pool_blocks),
                list(mem._pool_carves),
                [list(blocks) for blocks in mem.buddy._free],
                dict(mem.buddy._allocated),
            )
        )
    return nodes


def run_both(spec, picks, budget):
    """Batch on one copy, oracle on another; return both results."""
    batch, oracle = build(spec), build(spec)
    live = live_ids(batch)
    ids, dsts = [], []
    for index, length, dst in picks:
        start = index % live.size
        for backing_id in live[start : start + length]:
            ids.append(int(backing_id))
            dsts.append(dst % spec[0])
    batch_log, oracle_log = log_buddy_calls(batch), log_buddy_calls(oracle)
    version = batch.version
    moved = batch.migrate_backing(
        np.array(ids, dtype=np.int64), np.array(dsts), budget
    )
    expected = migrate_in_order(oracle, ids, dsts, budget)
    assert moved.tolist() == expected
    assert batch_log == oracle_log
    assert np.array_equal(batch.node4k, oracle.node4k)
    assert np.array_equal(batch.node2m, oracle.node2m)
    assert np.array_equal(batch._block2m, oracle._block2m)
    assert allocator_state(batch) == allocator_state(oracle)
    assert batch.version == version + (1 if sum(expected) else 0)
    batch.check_invariants()
    return moved, batch_log


scenarios = st.tuples(
    st.integers(2, 4),
    st.sampled_from([1536, 2048, 2560]),
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 3)),
        min_size=N_CHUNKS,
        max_size=N_CHUNKS,
    ).map(lambda layout: [(kind, node % 2) for kind, node in layout]),
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0.5, 0.99, 1.0])),
        max_size=2,
    ),
    st.integers(0, 6),
)

picks = st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.one_of(st.just(1), st.integers(2, 700)),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=12,
)

budgets = st.one_of(
    st.none(),
    st.integers(0, 8 * PAGE_2M),
    st.integers(0, 600).map(lambda n: n * PAGE_4K),
)


class TestBatchMatchesOracle:
    @given(spec=scenarios, picks=picks, budget=budgets)
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    def test_random_sequences(self, spec, picks, budget):
        try:
            build(spec)
        except AllocationError:
            assume(False)
        assume(live_ids(build(spec)).size)
        run_both(spec, picks, budget)

    def test_bulk_run_crosses_carve_and_return(self):
        # Two full 4KB chunks on node 0 migrate to node 1 and half of
        # them back: node 1 carves and node 0 returns blocks mid-run.
        spec = (2, 4096, [("uniform", 0)] * 2 + [("empty", 0)] * 2, 0, [], 0)
        moved, log = run_both(spec, [(0, 1024, 1), (0, 512, 0)], None)
        assert moved.sum() == 1536 * PAGE_4K
        assert any(op[0] == "alloc" for op in log[1])
        assert any(op[0] == "free" for op in log[0])

    def test_full_destination_is_skipped_per_element(self):
        spec = (2, 2048, [("uniform", 0)] + [("empty", 0)] * 3, 0, [(1, 1.0)], 0)
        moved, _ = run_both(spec, [(0, 10, 1)], None)
        assert moved.sum() == 0

    def test_budget_stops_before_element(self):
        spec = (2, 4096, [("uniform", 0)] + [("huge", 0)] * 3, 0, [], 0)
        # Three 4KB moves reach the budget; nothing after them moves.
        moved, _ = run_both(spec, [(0, 5, 1)], 3 * PAGE_4K)
        assert moved.tolist() == [PAGE_4K] * 3 + [0, 0]

    def test_repeated_granule_sees_earlier_move(self):
        spec = (3, 2048, [("uniform", 0)] + [("empty", 0)] * 3, 0, [], 0)
        asp = build(spec)
        moved = asp.migrate_backing([7, 7, 7], [1, 1, 0])
        assert moved.tolist() == [PAGE_4K, 0, PAGE_4K]
        assert asp.node4k[7] == 0
        asp.check_invariants()

    def test_mixed_sizes_keep_order(self):
        spec = (2, 4096, [("huge", 0), ("uniform", 0)] + [("empty", 0)] * 2, 0, [], 0)
        asp = build(spec)
        ids = [BACKING_ID_2M_OFFSET, GRANULES_PER_2M, BACKING_ID_2M_OFFSET]
        moved = asp.migrate_backing(ids, [1, 1, 0])
        assert moved.tolist() == [PAGE_2M, PAGE_4K, PAGE_2M]
        assert asp.node_of_backing(BACKING_ID_2M_OFFSET) == 0


class TestValidation:
    def test_bad_node_rejected_before_anything_moves(self):
        asp = build((2, 2048, [("uniform", 0)] + [("empty", 0)] * 3, 0, [], 0))
        with pytest.raises(MappingError, match="out of range"):
            asp.migrate_backing([0, 1], [1, 5])
        assert asp.node4k[0] == 0

    def test_dead_page_rejected(self):
        asp = build((2, 2048, [("empty", 0)] * 4, 0, [], 0))
        with pytest.raises(MappingError, match="not live"):
            asp.migrate_backing([BACKING_ID_2M_OFFSET], [1])

    def test_shape_mismatch_rejected(self):
        asp = build((2, 2048, [("uniform", 0)] + [("empty", 0)] * 3, 0, [], 0))
        with pytest.raises(MappingError, match="align"):
            asp.migrate_backing([0, 1], [1])

    def test_empty_batch_moves_nothing(self):
        asp = build((2, 2048, [("uniform", 0)] + [("empty", 0)] * 3, 0, [], 0))
        version = asp.version
        assert asp.migrate_backing([], []).size == 0
        assert asp.version == version


class TestLiveMask:
    def test_matches_scalar_liveness(self):
        asp = build((2, 4096, [("huge", 0), ("sparse", 1), ("empty", 0), ("uniform", 1)], 3, [], 0))
        ids = np.array(
            [0, 5, GRANULES_PER_2M + 3, 3 * GRANULES_PER_2M, 10**9,
             BACKING_ID_2M_OFFSET, BACKING_ID_2M_OFFSET + 2,
             BACKING_ID_2M_OFFSET + 10**6, -1],
            dtype=np.int64,
        )
        expected = [asp.backing_is_live(int(i)) for i in ids[:-1]] + [False]
        assert asp.live_backing_mask(ids).tolist() == expected
