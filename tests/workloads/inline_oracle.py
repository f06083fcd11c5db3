"""Per-stream inline generation: the reference the stream banks match.

Before stream banks the engine drew every thread's stream inline, once
per run, with its own ``rng_for`` generator, and fed the access
tracker one thread at a time.  That path now lives only here, as the
oracle of the bank equivalence tests:

* :func:`sequential_rows` — one epoch's ``(granules, writes, rng
  state)`` per thread;
* :class:`InlineStreams` — a drop-in for
  :func:`repro.workloads.streambank.get_stream_bank` that serves the
  engine the same four views a bank does, but memoizes nothing and
  derives each view per thread with plain ``np.unique`` calls.
  Patching it over ``repro.sim.engine.get_stream_bank`` runs a whole
  simulation (or scenario) on the inline path.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro._util import rng_for
from repro.vm.layout import SHIFT_1G, SHIFT_2M


def _thread_rng(instance, sim_seed: int, thread: int, epoch: int):
    return rng_for(sim_seed, instance.seed, instance.name, "stream", thread, epoch)


def sequential_rows(instance, epoch: int, length: int, sim_seed: int = 0):
    """The inline path's (granules, writes, rng state) for every thread."""
    rows = []
    for t in range(instance.n_threads):
        rng = _thread_rng(instance, sim_seed, t, epoch)
        granules, writes = instance.epoch_stream_with_writes(t, epoch, rng, length)
        rows.append((granules, writes, rng.bit_generator.state))
    return rows


class InlineStreams:
    """Unmemoized, per-thread stream source with the bank's interface."""

    def __init__(self, instance, sim_seed: int, length: int) -> None:
        self.instance = instance
        self.sim_seed = sim_seed
        self.length = length
        self.n_threads = int(instance.n_threads)

    def epoch_arrays(self, epoch: int):
        n, length = self.n_threads, self.length
        streams = np.zeros((n, length), dtype=np.int64)
        writes = np.zeros((n, length), dtype=bool)
        sizes = np.zeros(n, dtype=np.int64)
        rows = sequential_rows(self.instance, epoch, length, self.sim_seed)
        for t, (granules, written, _) in enumerate(rows):
            sizes[t] = granules.size
            streams[t, : granules.size] = granules
            writes[t, : granules.size] = written
        return streams, writes, sizes

    def ibs_rngs(self, epoch: int) -> List[np.random.Generator]:
        """Each thread's generator, advanced past its stream draws."""
        rngs = []
        for t in range(self.n_threads):
            rng = _thread_rng(self.instance, self.sim_seed, t, epoch)
            self.instance.epoch_stream_with_writes(t, epoch, rng, self.length)
            rngs.append(rng)
        return rngs

    def epoch_tracker(self, epoch: int):
        """Per-thread ``np.unique`` columns, weighted by the engine's
        per-thread scale ``dram_accesses / stream_size``."""
        streams, _, sizes = self.epoch_arrays(epoch)
        dram = self.instance.cost.dram_accesses
        ids, counts, scaled = [], [], []
        offsets = np.zeros(self.n_threads + 1, dtype=np.int64)
        for t in range(self.n_threads):
            n = int(sizes[t])
            unique, count = np.unique(streams[t, :n], return_counts=True)
            ids.append(unique)
            counts.append(count)
            scaled.append(count * (dram / n) if n else count.astype(np.float64))
            offsets[t + 1] = offsets[t] + unique.size
        return (
            np.concatenate(ids),
            offsets,
            np.concatenate(counts),
            np.concatenate(scaled),
        )

    def sharing_packed(self, epoch: int):
        """Per level: ids any thread touched, the lowest toucher of
        each, and whether two or more threads touched it."""
        ids, offsets, _, _ = self.epoch_tracker(epoch)
        level_ids, level_first, level_multi = [], [], []
        for shift in (0, SHIFT_2M, SHIFT_1G):
            per_thread = [
                np.unique(ids[offsets[t]:offsets[t + 1]] >> shift)
                for t in range(self.n_threads)
            ]
            touched = np.concatenate(per_thread)
            threads = np.repeat(
                np.arange(self.n_threads), [a.size for a in per_thread]
            )
            unique, inverse, n_threads = np.unique(
                touched, return_inverse=True, return_counts=True
            )
            first = np.full(unique.size, self.n_threads, dtype=np.int16)
            np.minimum.at(first, inverse, threads.astype(np.int16))
            level_ids.append(unique.astype(np.int64))
            level_first.append(first)
            level_multi.append(n_threads > 1)
        level_offsets = np.zeros(4, dtype=np.int64)
        np.cumsum([a.size for a in level_ids], out=level_offsets[1:])
        return (
            np.concatenate(level_ids),
            np.concatenate(level_first),
            np.concatenate(level_multi),
            level_offsets,
        )
