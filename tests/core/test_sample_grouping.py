"""The sort-based sample grouping against the ``np.unique`` oracle.

:meth:`PageSampleTable.from_samples` groups a batch once (one sort)
and shares the tables across the interval's deciders; every table must
still equal the oracle's exactly — ints equal, floats bit for bit —
with rows in ascending-id order, because Carrefour and AutoNUMA
tie-break on row order with a non-stable ``argsort``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.metrics import PageSampleTable
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.vm.address_space import (
    AddressSpace,
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M

from tests.core.sample_table_oracle import oracle_table

GIB = 1 << 30
INT16_MAX = np.iinfo(np.int16).max
#: Granules of the mixed address space below: 2MB pages, 4KB pages,
#: unmapped granules, and one 1GB page.
MIXED_GRANULES = st.one_of(
    st.integers(0, 4 * GRANULES_PER_2M - 1),
    st.integers(GRANULES_PER_1G, GRANULES_PER_1G + 3 * GRANULES_PER_2M),
    st.integers(0, 2 * GRANULES_PER_1G - 1),
)


def mixed_asp():
    """Chunks 0-1 2MB, chunks 2-3 4KB, the second gigabyte one 1GB page."""
    asp = AddressSpace(2 * GRANULES_PER_1G, PhysicalMemory([2 * GIB, 2 * GIB]))
    asp.premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
    asp.premap_pattern_4k(
        2 * GRANULES_PER_2M, np.arange(2 * GRANULES_PER_2M, dtype=np.int8) % 2
    )
    asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, node=1)
    return asp


MIXED = mixed_asp()


def make_samples(granules, nodes, threads, writes):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.zeros(n, dtype=np.int8),
        thread=np.asarray(threads, dtype=np.int64),
        from_dram=np.ones(n, dtype=bool),
        is_write=np.asarray(writes, dtype=bool),
    )


@st.composite
def batches(draw, granules=MIXED_GRANULES, max_thread=INT16_MAX, max_size=120):
    n_nodes = draw(st.integers(1, 8))
    n = draw(st.integers(0, max_size))
    # Few distinct granules and threads, so pages repeat.
    pool = draw(st.lists(granules, min_size=1, max_size=12))
    threads = draw(st.lists(st.integers(0, max_thread), min_size=1, max_size=6))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool),
                st.integers(0, n_nodes - 1),
                st.sampled_from(threads),
                st.booleans(),
            ),
            min_size=n,
            max_size=n,
        )
    )
    columns = list(zip(*rows)) if rows else [[], [], [], []]
    return make_samples(*columns), n_nodes


def exact(table):
    """A table rendered with ints as ints and floats as hex strings."""
    return (
        table.n_samples,
        (str(table.ids.dtype), table.ids.tolist()),
        (str(table.thread_counts.dtype), table.thread_counts.tolist()),
        (str(table.node_counts.dtype), table.node_counts.shape),
        [float(x).hex() for x in table.node_counts.flat],
        (str(table.write_counts.dtype), table.write_counts.shape),
        [float(x).hex() for x in table.write_counts.flat],
    )


def assert_matches_oracle(samples, asp, n_nodes, granularity):
    table = PageSampleTable.from_samples(samples, asp, n_nodes, granularity)
    assert exact(table) == exact(oracle_table(samples, asp, n_nodes, granularity))
    assert np.all(np.diff(table.ids) > 0), "rows must be in ascending-id order"
    return table


@settings(max_examples=150, deadline=None)
@given(batches())
@example((make_samples([], [], [], []), 2))
@example((make_samples([7], [1], [INT16_MAX], [True]), 2))
@example((make_samples([0, 5, GRANULES_PER_1G + 9, 3 * GRANULES_PER_2M], [0, 1, 1, 0],
                       [INT16_MAX, 0, INT16_MAX, 3], [False, True, False, False]), 2))
def test_both_granularities_equal_the_oracle(batch):
    samples, n_nodes = batch
    # Either table may be asked for first; both come from one grouping.
    first, second = ("4k", "backing") if len(samples) % 2 else ("backing", "4k")
    assert_matches_oracle(samples, MIXED, n_nodes, first)
    assert_matches_oracle(samples, MIXED, n_nodes, second)


@settings(max_examples=60, deadline=None)
@given(batches(max_thread=2**40, max_size=60))
def test_wide_thread_ids_take_the_lexsort_path(batch):
    samples, n_nodes = batch
    assert_matches_oracle(samples, MIXED, n_nodes, "backing")
    assert_matches_oracle(samples, MIXED, n_nodes, "4k")


@settings(max_examples=60, deadline=None)
@given(batches(granules=st.integers(2**50, 2**50 + 4096), max_size=60))
def test_wide_granule_ids_take_the_lexsort_path(batch):
    samples, n_nodes = batch
    assert_matches_oracle(samples, MIXED, n_nodes, "4k")


@pytest.mark.parametrize("granularity", ["backing", "4k"])
def test_negative_thread_ids_rejected(granularity):
    samples = make_samples([0, 1], [0, 0], [3, -1], [False, False])
    with pytest.raises(ConfigurationError):
        PageSampleTable.from_samples(samples, MIXED, 2, granularity)


@pytest.mark.parametrize("node", [-1, 2])
def test_accessing_nodes_outside_the_machine_rejected(node):
    samples = make_samples([0, 1], [0, node], [0, 0], [False, False])
    with pytest.raises(ConfigurationError):
        PageSampleTable.from_samples(samples, MIXED, 2)


def test_mixed_backing_ids_span_every_size_class():
    samples = make_samples(
        [GRANULES_PER_1G + 1, 2 * GRANULES_PER_2M + 3, 1, GRANULES_PER_2M + 2],
        [0, 1, 0, 1], [0, 1, 2, 3], [False] * 4,
    )
    table = assert_matches_oracle(samples, MIXED, 2, "backing")
    assert table.ids.tolist() == [
        2 * GRANULES_PER_2M + 3,
        BACKING_ID_2M_OFFSET,
        BACKING_ID_2M_OFFSET + 1,
        BACKING_ID_1G_OFFSET + 1,
    ]


def test_tables_are_shared_and_read_only():
    samples = make_samples([0, 1, 600], [0, 1, 1], [0, 1, 1], [True, False, False])
    table = PageSampleTable.from_samples(samples, MIXED, 2)
    assert PageSampleTable.from_samples(samples, MIXED, 2) is table
    assert PageSampleTable.from_samples(samples, MIXED, 2, "4k") is (
        PageSampleTable.from_samples(samples, MIXED, 2, "4k")
    )
    for array in (table.ids, table.node_counts, table.thread_counts,
                  table.write_counts, table.totals, table.nodes_touching):
        assert not array.flags.writeable


def test_backing_table_after_a_split_shows_the_new_backing():
    asp = AddressSpace(4 * GRANULES_PER_2M, PhysicalMemory([GIB, GIB]))
    asp.premap_pattern_2m(0, np.array([0, 1, 0, 1], dtype=np.int8))
    granules = [
        3, 100, GRANULES_PER_2M + 7, 2 * GRANULES_PER_2M, 2 * GRANULES_PER_2M + 9
    ]
    samples = make_samples(granules, [0, 1, 1, 0, 1], [0, 1, 2, 0, 3], [False] * 5)
    before = assert_matches_oracle(samples, asp, 2, "backing")
    assert before.ids.tolist() == [BACKING_ID_2M_OFFSET + c for c in (0, 1, 2)]

    asp.split_chunk(2)
    after = assert_matches_oracle(samples, asp, 2, "backing")
    assert after is not before
    assert after.ids.tolist() == [
        2 * GRANULES_PER_2M, 2 * GRANULES_PER_2M + 9,
        BACKING_ID_2M_OFFSET, BACKING_ID_2M_OFFSET + 1,
    ]
    # No further mutation: the post-split table is reused.
    assert PageSampleTable.from_samples(samples, asp, 2) is after
