"""Tests for the epoch-batched stream banks.

The contract under test is *bit-identity*: a banked run must be
indistinguishable from the inline per-thread generation it replaced
(kept as the oracle in :mod:`tests.workloads.inline_oracle`) — same
granule streams, same write masks, same post-generation RNG states
(the IBS sampler continues those generators), and the same
access-tracker state from the pre-aggregated columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import RunSettings, clear_cache, execute_run
from repro.sim import engine
from repro.sim.tracker import AccessTracker
from repro.vm.layout import SHIFT_1G, SHIFT_2M
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import (
    HotRegion,
    PartitionedRegion,
    SharedRegion,
    StreamRegion,
)
from repro.workloads import streambank
from repro.workloads.streambank import (
    StreamBank,
    bank_fingerprint,
    clear_stream_banks,
    get_stream_bank,
    stream_prefetch_enabled,
)
from repro.workloads.trace import TraceData, TraceRecorder, TraceWorkloadInstance

from tests.workloads.inline_oracle import InlineStreams, sequential_rows

MIB = 1 << 20
LENGTH = 192
SIM_SEED = 0

#: One factory per builtin region type (plus a mixed composite).  The
#: factories build fresh region objects each call because binding to an
#: instance mutates them.
REGION_FACTORIES = {
    "partitioned": lambda: [
        PartitionedRegion("p", 4 * MIB, 1.0, block_bytes=64 * 1024)
    ],
    "shared": lambda: [
        SharedRegion("s", 8 * MIB, 1.0, zipf_s=1.1, clustered=False)
    ],
    "hot": lambda: [HotRegion("h", 2 * MIB, 1.0)],
    "stream": lambda: [
        StreamRegion("st", bytes_per_thread=4 * MIB, access_share=1.0,
                     grow_epochs=3)
    ],
    "mixed": lambda: [
        PartitionedRegion("p", 4 * MIB, 0.5, block_bytes=64 * 1024),
        SharedRegion("s", 4 * MIB, 0.3, zipf_s=0.8),
        StreamRegion("st", bytes_per_thread=2 * MIB, access_share=0.2,
                     grow_epochs=2),
    ],
}


def make_instance(regions, machine, total_epochs=4, **kwargs):
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    return WorkloadInstance(
        "test", machine, regions, cost, total_epochs=total_epochs, **kwargs
    )


def assert_bank_matches_sequential(bank, instance, epoch, length=LENGTH):
    streams, writes, sizes = bank.epoch_arrays(epoch)
    ibs = bank.ibs_rngs(epoch)
    for t, (ref_g, ref_w, ref_state) in enumerate(
        sequential_rows(instance, epoch, length, SIM_SEED)
    ):
        n = int(sizes[t])
        assert n == ref_g.size
        np.testing.assert_array_equal(streams[t, :n], ref_g)
        np.testing.assert_array_equal(writes[t, :n], ref_w)
        # Rows past the stream size stay zeroed (epoch_stream_into
        # relies on pre-zeroed write rows).
        assert not writes[t, n:].any()
        assert ibs[t].bit_generator.state == ref_state


@pytest.fixture(autouse=True)
def _fresh_banks():
    clear_stream_banks()
    yield
    clear_stream_banks()


class TestBatchedEquivalence:
    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_matches_sequential(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in (0, 1, 3):
            assert_bank_matches_sequential(bank, inst, epoch)

    def test_write_fraction_zero(self, tiny_topo):
        """wf=0 regions draw no write randomness on either path."""
        inst = make_instance(
            [SharedRegion("s", 4 * MIB, 1.0, write_fraction=0.0)], tiny_topo
        )
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in (0, 2):
            assert_bank_matches_sequential(bank, inst, epoch)
        _, writes, sizes = bank.epoch_arrays(0)
        assert not writes.any()
        assert (sizes == LENGTH).all()

    def test_trace_replay_matches_sequential(self, tiny_topo):
        """Trace instances (no epoch_stream_into) use the fallback."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        trace = TraceRecorder().record(inst, stream_length=96)
        replay = TraceWorkloadInstance("replayed", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 64)
        for epoch in range(replay.total_epochs):
            assert_bank_matches_sequential(bank, replay, epoch, length=64)

    def test_empty_streams(self, tiny_topo):
        """An epoch nobody touches yields empty rows and empty columns."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        trace = TraceData(
            n_threads=2,
            n_granules=64,
            total_epochs=2,
            thread=np.array([0, 0, 1], dtype=np.int64),
            epoch=np.zeros(3, dtype=np.int64),
            granule=np.array([1, 2, 3], dtype=np.int64),
            is_write=np.array([False, True, False]),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("sparse", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        _, writes, sizes = bank.epoch_arrays(1)
        assert (sizes == 0).all()
        assert not writes.any()
        ids, first, multi, offsets = bank.sharing_packed(1)
        assert ids.size == first.size == multi.size == 0
        assert (offsets == 0).all()
        tracker = AccessTracker(64)
        tracker.merge_epoch_sharing(bank.sharing_packed(1))
        assert not tracker._shared_4k.any()
        assert (tracker._first_4k == -1).all()


class TestTrackerColumns:
    def test_columns_match_numpy_unique(self, tiny_topo):
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        streams, _, sizes = bank.epoch_arrays(0)
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        for t in range(inst.n_threads):
            lo, hi = int(offsets[t]), int(offsets[t + 1])
            ref_u, ref_c = np.unique(streams[t, : int(sizes[t])],
                                     return_counts=True)
            np.testing.assert_array_equal(ids[lo:hi], ref_u)
            np.testing.assert_array_equal(counts[lo:hi], ref_c)
        # The coarser sharing levels hold every chunk any thread hit.
        p_ids, _, _, levels = bank.sharing_packed(0)
        for level, shift in ((0, 0), (1, SHIFT_2M), (2, SHIFT_1G)):
            np.testing.assert_array_equal(
                p_ids[levels[level]:levels[level + 1]],
                np.unique(ids >> shift),
            )

    def test_merge_matches_sequential_update(self, tiny_topo):
        """Bank columns reproduce the tracker state of per-thread update().

        Sequential reference: ``update(t, ...)`` per thread in ascending
        order, epoch by epoch — exactly the inline engine loop.  The
        fused side weights each thread's segment of the epoch COO with
        the same distinct per-thread weight.
        """
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        seq = AccessTracker(inst.n_granules)
        banked = AccessTracker(inst.n_granules)
        weights = 0.5 + 0.25 * np.arange(inst.n_threads)
        for epoch in range(inst.total_epochs):
            streams, _, sizes = bank.epoch_arrays(epoch)
            for t in range(inst.n_threads):
                seq.update(t, streams[t, : int(sizes[t])], float(weights[t]))
            ids, offsets, counts, _ = bank.epoch_tracker(epoch)
            banked.add_epoch(ids, counts * np.repeat(weights, np.diff(offsets)))
            banked.merge_epoch_sharing(bank.sharing_packed(epoch))
        np.testing.assert_array_equal(banked.weight, seq.weight)
        for level in ("4k", "2m", "1g"):
            np.testing.assert_array_equal(
                getattr(banked, f"_first_{level}"),
                getattr(seq, f"_first_{level}"),
            )
            np.testing.assert_array_equal(
                getattr(banked, f"_shared_{level}"),
                getattr(seq, f"_shared_{level}"),
            )


class TestBankMemoization:
    def test_fingerprint_stability(self, tiny_topo):
        a = make_instance(REGION_FACTORIES["shared"](), tiny_topo)
        b = make_instance(REGION_FACTORIES["shared"](), tiny_topo)
        assert bank_fingerprint(a, 0, LENGTH) == bank_fingerprint(b, 0, LENGTH)
        assert bank_fingerprint(a, 1, LENGTH) != bank_fingerprint(a, 0, LENGTH)
        assert bank_fingerprint(a, 0, 64) != bank_fingerprint(a, 0, LENGTH)
        c = make_instance(REGION_FACTORIES["shared"](), tiny_topo, seed=7)
        assert bank_fingerprint(c, 0, LENGTH) != bank_fingerprint(a, 0, LENGTH)

    def test_equal_instances_share_a_bank(self, tiny_topo):
        a = make_instance(REGION_FACTORIES["partitioned"](), tiny_topo)
        b = make_instance(REGION_FACTORIES["partitioned"](), tiny_topo)
        assert get_stream_bank(a, 0, LENGTH) is get_stream_bank(b, 0, LENGTH)

    def test_trace_banks_are_per_object(self, tiny_topo):
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        trace = TraceRecorder().record(inst, stream_length=64)
        r1 = TraceWorkloadInstance("t", tiny_topo, trace)
        r2 = TraceWorkloadInstance("t", tiny_topo, trace)
        assert bank_fingerprint(r1, 0, LENGTH) is None
        assert get_stream_bank(r1, 0, LENGTH) is get_stream_bank(r1, 0, LENGTH)
        assert get_stream_bank(r1, 0, LENGTH) is not get_stream_bank(r2, 0, LENGTH)

    def test_rebound_instance_invalidates_bank(self, tiny_topo):
        """with_1g_backing re-binds the shared region objects; the stale
        bank must not answer for the original fingerprint afterwards."""
        inst = make_instance(REGION_FACTORIES["stream"](), tiny_topo)
        stale = get_stream_bank(inst, SIM_SEED, LENGTH)
        stale.epoch_arrays(0)
        inst.with_1g_backing()  # mutates the regions stale.instance holds
        fresh_inst = make_instance(REGION_FACTORIES["stream"](), tiny_topo)
        fresh = get_stream_bank(fresh_inst, SIM_SEED, LENGTH)
        assert fresh is not stale
        assert_bank_matches_sequential(fresh, fresh_inst, 0)


def assert_fused_matches_update(bank, instance, epochs):
    """Property: add_epoch over the fused COO == the sequential
    per-thread update() loop, bit for bit, including sharing state.

    The reference recomputes the engine's per-thread scale
    (``dram_accesses / stream_size``) exactly as ``_run_epoch`` does.
    """
    seq = AccessTracker(instance.n_granules)
    fused = AccessTracker(instance.n_granules)
    dram = instance.cost.dram_accesses
    for epoch in epochs:
        streams, _, sizes = bank.epoch_arrays(epoch)
        scale = np.zeros(bank.n_threads)
        active = sizes > 0
        scale[active] = dram / sizes[active]
        for t in range(bank.n_threads):
            n = int(sizes[t])
            seq.update(t, streams[t, :n], float(scale[t]))
        ids, offsets, counts, scaled = bank.epoch_tracker(epoch)
        assert offsets.shape == (bank.n_threads + 1,)
        assert int(offsets[-1]) == ids.size == counts.size == scaled.size
        fused.add_epoch(ids, scaled)
        fused.merge_epoch_sharing(bank.sharing_packed(epoch))
    np.testing.assert_array_equal(fused.weight, seq.weight)
    for level in ("4k", "2m", "1g"):
        np.testing.assert_array_equal(
            getattr(fused, f"_first_{level}"), getattr(seq, f"_first_{level}")
        )
        np.testing.assert_array_equal(
            getattr(fused, f"_shared_{level}"), getattr(seq, f"_shared_{level}")
        )


class TestFusedEpochAggregation:
    """Property-style equivalence: the fused per-epoch COO path
    (``epoch_tracker`` + ``add_epoch`` + ``sharing_packed``) must
    reproduce the sequential per-thread ``update`` loop exactly."""

    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_every_region_kind(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

    def test_empty_streams(self, tiny_topo):
        """Epochs nobody touches contribute empty COO segments."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        trace = TraceData(
            n_threads=2,
            n_granules=64,
            total_epochs=3,
            thread=np.array([0, 0, 1], dtype=np.int64),
            epoch=np.array([0, 0, 2], dtype=np.int64),
            granule=np.array([1, 2, 3], dtype=np.int64),
            is_write=np.array([False, True, False]),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("sparse", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        ids, offsets, counts, scaled = bank.epoch_tracker(1)
        assert ids.size == counts.size == scaled.size == 0
        assert (offsets == 0).all()
        assert_fused_matches_update(bank, replay, range(3))

    def test_single_thread_epochs(self):
        """A one-core machine produces a single COO segment."""
        from repro.hardware.topology import NumaNode, NumaTopology

        GIB = 1 << 30
        solo = NumaTopology(
            name="solo",
            nodes=[NumaNode(node_id=0, n_cores=1, dram_bytes=2 * GIB)],
            hop_matrix=np.array([[0]]),
            cpu_freq_hz=2e9,
        )
        inst = make_instance(REGION_FACTORIES["mixed"](), solo)
        assert inst.n_threads == 1
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        assert offsets.shape == (2,)
        np.testing.assert_array_equal(
            ids, np.unique(bank.epoch_arrays(0)[0][0])
        )
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

    def test_write_fraction_zero(self, tiny_topo):
        inst = make_instance(
            [SharedRegion("s", 4 * MIB, 1.0, write_fraction=0.0)], tiny_topo
        )
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

    def test_max_thread_id_edge(self, tiny_topo):
        """Only the highest thread id active: its segment must land at
        the COO tail and own the sharing ``first`` entries."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        last = 3  # tiny_topo has 4 cores -> thread ids 0..3
        trace = TraceData(
            n_threads=4,
            n_granules=64,
            total_epochs=2,
            thread=np.full(5, last, dtype=np.int64),
            epoch=np.zeros(5, dtype=np.int64),
            granule=np.array([7, 7, 9, 11, 9], dtype=np.int64),
            is_write=np.zeros(5, dtype=bool),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("tail", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        assert (offsets[: last + 1] == 0).all()
        np.testing.assert_array_equal(ids, [7, 9, 11])
        np.testing.assert_array_equal(counts, [2, 2, 1])
        p_ids, p_first, _, _ = bank.sharing_packed(0)
        assert (p_first == last).all()
        assert_fused_matches_update(bank, replay, range(2))

    def test_ragged_and_full_paths_agree(self, tiny_topo):
        """The vectorized row-sort aggregation (full rows) equals the
        per-thread np.unique fallback on the same data."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        block, i = bank._ensure_row(2)
        fast = bank._aggregate_tracker(block, i)
        forced = bank.length
        try:
            bank.length = -1  # any mismatch forces the ragged path
            slow = bank._aggregate_tracker(block, i)
        finally:
            bank.length = forced
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)


class TestLazyFill:
    """Rows fill on demand, in any order, and stay bit-identical."""

    def _reference_rows(self, kind, tiny_topo, total_epochs):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo,
                             total_epochs=total_epochs)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        rows = []
        for epoch in range(total_epochs):
            streams, writes, sizes = bank.epoch_arrays(epoch)
            rows.append(
                (
                    streams.copy(),
                    writes.copy(),
                    sizes.copy(),
                    bank.epoch_tracker(epoch),
                    bank.sharing_packed(epoch),
                    [r.bit_generator.state for r in bank.ibs_rngs(epoch)],
                )
            )
        return rows

    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_out_of_order_fill_bit_identical(self, kind, tiny_topo):
        """Filling epochs last-to-first, each first touched through a
        different accessor, equals the in-order fill."""
        total = 6
        reference = self._reference_rows(kind, tiny_topo, total)
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo,
                             total_epochs=total)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        accessors = (bank.sharing_packed, bank.epoch_tracker, bank.ibs_rngs,
                     bank.epoch_arrays)
        for epoch in reversed(range(total)):
            accessors[epoch % len(accessors)](epoch)
        for epoch, (streams, writes, sizes, tracker, sharing,
                    states) in enumerate(reference):
            got_s, got_w, got_z = bank.epoch_arrays(epoch)
            np.testing.assert_array_equal(got_s, streams)
            np.testing.assert_array_equal(got_w, writes)
            np.testing.assert_array_equal(got_z, sizes)
            for a, b in zip(bank.epoch_tracker(epoch), tracker):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(bank.sharing_packed(epoch), sharing):
                np.testing.assert_array_equal(a, b)
            got_states = [
                r.bit_generator.state for r in bank.ibs_rngs(epoch)
            ]
            assert got_states == states

    def test_fill_stays_lazy(self, tiny_topo):
        """Only the consumed row fills."""
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=6)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        bank.epoch_arrays(0)
        block = bank._blocks[0]
        assert bool(block.filled[0])
        assert not block.filled[1:].any()

    @pytest.mark.parametrize(
        "accessor",
        ["epoch_arrays", "ibs_rngs", "epoch_tracker", "sharing_packed"],
    )
    def test_each_accessor_completes_the_block(self, accessor, tiny_topo):
        """Whichever accessor reads every epoch, the block ends full and
        each row equals the sequential reference."""
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        read = getattr(bank, accessor)
        read(0)
        assert not bool(bank._blocks[0].filled.all())
        for epoch in range(inst.total_epochs):
            read(epoch)
        assert bool(bank._blocks[0].filled.all())
        for epoch in range(inst.total_epochs):
            assert_bank_matches_sequential(bank, inst, epoch)

    def test_prefetch_is_always_off(self, monkeypatch):
        """No background fill exists, whatever the environment says."""
        monkeypatch.setenv("REPRO_STREAM_PREFETCH", "1")
        assert stream_prefetch_enabled() is False


class TestMemoryBounds:
    """Banks are memory-only and LRU-bounded; what is evicted comes
    back bit-identical."""

    def test_evicted_block_regenerates_bit_identical(self, tiny_topo):
        blocks = streambank._MAX_BLOCKS_PER_BANK + 1
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=blocks * streambank.EPOCH_WINDOW)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        streams, writes, sizes = (a.copy() for a in bank.epoch_arrays(0))
        tracker = [a.copy() for a in bank.epoch_tracker(0)]
        sharing = [a.copy() for a in bank.sharing_packed(0)]
        states = [r.bit_generator.state for r in bank.ibs_rngs(0)]
        for block in range(1, blocks):
            bank.epoch_arrays(block * streambank.EPOCH_WINDOW)
        assert 0 not in bank._blocks
        assert len(bank._blocks) == streambank._MAX_BLOCKS_PER_BANK

        got_s, got_w, got_z = bank.epoch_arrays(0)
        np.testing.assert_array_equal(got_s, streams)
        np.testing.assert_array_equal(got_w, writes)
        np.testing.assert_array_equal(got_z, sizes)
        for a, b in zip(bank.epoch_tracker(0), tracker):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(bank.sharing_packed(0), sharing):
            np.testing.assert_array_equal(a, b)
        assert [r.bit_generator.state for r in bank.ibs_rngs(0)] == states
        assert_bank_matches_sequential(bank, inst, 0)

    def test_bank_count_is_bounded(self, tiny_topo):
        banks = []
        for seed in range(streambank._MAX_BANKS + 3):
            inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                                 seed=seed)
            banks.append(get_stream_bank(inst, SIM_SEED, LENGTH))
            assert len(streambank._BANKS) <= streambank._MAX_BANKS
        assert len(streambank._BANKS) == streambank._MAX_BANKS
        held = list(streambank._BANKS.values())
        assert held == banks[-streambank._MAX_BANKS:]

    def test_retired_store_knob_writes_nothing(self, tiny_topo, tmp_path,
                                               monkeypatch):
        """``REPRO_STREAM_CACHE`` once persisted filled blocks to disk;
        filling a whole bank now leaves the directory empty."""
        monkeypatch.setenv("REPRO_STREAM_CACHE", str(tmp_path))
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
            bank.ibs_rngs(epoch)
            bank.epoch_tracker(epoch)
            bank.sharing_packed(epoch)
        assert bool(bank._blocks[0].filled.all())
        assert list(tmp_path.iterdir()) == []


def _run_signature(result):
    """Everything a run reports that the streams can influence."""
    return (
        result.runtime_s,
        tuple(result.epoch_times_s),
        result.hot_stats,
        tuple(
            result.bank.total(counter)
            for counter in (
                "tlb_misses",
                "page_faults_4k",
                "page_faults_2m",
                "time_dram_s",
                "time_walk_s",
                "time_ibs_s",
                "ibs_samples",
            )
        ),
        float(sum(e.traffic.sum() for e in result.bank.epochs)),
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "policy", ["thp", "carrefour-lp", "linux-4k", "carrefour-2m", "autonuma"]
    )
    def test_inline_oracle_is_bit_identical(self, policy, monkeypatch):
        """A banked engine run equals a run on the inline oracle, metric
        for metric (``carrefour-lp`` samples IBS, so it also replays the
        post-generation generators)."""
        settings = RunSettings.quick()
        clear_cache()
        banked = execute_run("Kmeans", "A", policy, settings, False)

        monkeypatch.setattr(engine, "get_stream_bank", InlineStreams)
        clear_cache()
        inline = execute_run("Kmeans", "A", policy, settings, False)

        assert _run_signature(banked) == _run_signature(inline)

    def test_retired_bank_knob_is_ignored(self, monkeypatch):
        """``REPRO_STREAM_BANK=0`` once selected the inline path; every
        run now draws its streams from a bank regardless."""
        settings = RunSettings.quick()
        clear_cache()
        default = execute_run("Kmeans", "A", "carrefour-lp", settings, False)

        monkeypatch.setenv("REPRO_STREAM_BANK", "0")
        fetched = []
        orig = engine.get_stream_bank

        def spy(*args):
            bank = orig(*args)
            fetched.append(bank)
            return bank

        monkeypatch.setattr(engine, "get_stream_bank", spy)
        clear_cache()
        knob = execute_run("Kmeans", "A", "carrefour-lp", settings, False)

        assert [type(bank) for bank in fetched] == [StreamBank]
        assert _run_signature(knob) == _run_signature(default)
