"""Sample tables and metric helpers shared by the Carrefour family.

Everything the policies know comes from IBS samples.  A
:class:`PageSampleTable` groups a batch of samples by *backing page*
(at the page sizes currently in use, or — for what-if estimates — at
4KB granularity regardless of backing) and exposes the per-page,
per-node access counts that drive every placement decision.

A batch is grouped once: :class:`SampleGrouping` sorts it a single
time and is memoised on the batch, so the LAR estimator, the reactive
component, Carrefour and AutoNUMA — and every member of a policy stack
— share one 4KB table and one backing table per
:attr:`~repro.vm.address_space.AddressSpace.version`.  Rows are in
ascending page-id order (the deciders' hottest-first ``argsort`` ties
depend on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.units import Samples, SamplesArray
from repro.vm.address_space import AddressSpace


@dataclass
class PageSampleTable:
    """Per-page sample statistics from one monitoring interval.

    Tables are shared by every decider of an interval, so their arrays
    are read-only.

    Attributes
    ----------
    ids:
        Backing-page ids (or granule ids in 4KB mode), one per page,
        ascending.
    node_counts:
        ``(n_pages, n_nodes)`` samples per page per *accessing* node.
    thread_counts:
        ``(n_pages,)`` number of distinct accessing threads per page.
    n_samples:
        Total samples in the table.
    """

    ids: np.ndarray
    node_counts: SamplesArray
    thread_counts: np.ndarray
    n_samples: Samples
    #: Sampled stores per page (replication eligibility).
    write_counts: SamplesArray = None

    def __post_init__(self) -> None:
        for array in (self.ids, self.node_counts, self.thread_counts):
            _frozen(array)
        if self.write_counts is not None:
            _frozen(self.write_counts)

    @classmethod
    def from_samples(
        cls,
        samples: IbsSamples,
        address_space: AddressSpace,
        n_nodes: int,
        granularity: str = "backing",
    ) -> "PageSampleTable":
        """Group a sample batch by page.

        ``granularity='backing'`` groups by the page sizes currently in
        use; ``granularity='4k'`` groups by 4KB granule regardless of
        backing (the "what if we split everything" view).  Both come
        from the batch's one :class:`SampleGrouping`.
        """
        if granularity not in ("backing", "4k"):
            raise ConfigurationError(f"unknown granularity {granularity!r}")
        grouping = SampleGrouping.of(samples, n_nodes)
        if granularity == "4k":
            return grouping.by_granule
        return grouping.by_backing(address_space)

    @cached_property
    def totals(self) -> SamplesArray:
        """Total samples per page."""
        return _frozen(self.node_counts.sum(axis=1))

    @cached_property
    def nodes_touching(self) -> np.ndarray:
        """Number of distinct accessing nodes per page."""
        return _frozen((self.node_counts > 0).sum(axis=1))

    def single_node_mask(self) -> np.ndarray:
        """Pages whose samples all came from one node."""
        return self.nodes_touching == 1

    def shared_mask(self) -> np.ndarray:
        """Pages sampled from at least two nodes."""
        return self.nodes_touching >= 2

    def hot_mask(self, threshold_pct: float) -> np.ndarray:
        """Pages receiving more than ``threshold_pct`` percent of samples."""
        if self.n_samples == 0:
            return np.zeros(0, dtype=bool)
        return self.totals > self.n_samples * threshold_pct / 100.0

    def read_only_mask(self) -> np.ndarray:
        """Pages with no sampled store (replication candidates)."""
        if self.write_counts is None:
            return np.ones(self.ids.shape, dtype=bool)
        return self.write_counts == 0

    def dominant_nodes(self) -> np.ndarray:
        """Most frequent accessing node per page."""
        if self.ids.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.argmax(self.node_counts, axis=1)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: shared tables must not be edited."""
    array.flags.writeable = False
    return array


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the positions where a run of equal ``keys`` begins."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _sort_batch(samples: IbsSamples, n_nodes: int) -> Tuple[np.ndarray, ...]:
    """The batch's granule, thread, node and store columns, sorted.

    The one sort of a batch, lexicographic in that column order.  The
    columns are packed into one int64 key whenever they fit (thread ids
    are int16 and granule ids far below 2**40), so a plain ``np.sort``
    does it; wider ids fall back to ``np.lexsort``.
    """
    granule = np.asarray(samples.granule, dtype=np.int64)
    thread, node, store = samples.thread, samples.accessing_node, samples.is_write
    if int(thread.min()) < 0:
        raise ConfigurationError("thread ids must be non-negative")
    if int(node.min()) < 0 or int(node.max()) >= n_nodes:
        raise ConfigurationError("accessing nodes must lie in [0, n_nodes)")
    thread_bits = int(thread.max()).bit_length()
    node_bits = (n_nodes - 1).bit_length()
    low = thread_bits + node_bits + 1
    if low < 63 and int(granule.min()) >= 0 and int(granule.max()) >> (63 - low) == 0:
        key = granule << low
        key |= thread.astype(np.int64) << (node_bits + 1)
        key |= node.astype(np.int64) << 1
        key |= store
        key.sort()
        return (
            key >> low,
            (key >> (node_bits + 1)) & ((1 << thread_bits) - 1),
            (key >> 1) & ((1 << node_bits) - 1),
            key & 1,
        )
    order = np.lexsort((store, node, thread, granule))
    return granule[order], thread[order], node[order], store[order]


class SampleGrouping:
    """One batch of samples grouped by page, from one sort.

    :attr:`by_granule` is the 4KB table.  The backing table is derived
    from it, not from the samples: a backing page covers a contiguous
    granule range, so its sampled granules form one run of the
    ascending granule ids and regrouping is a reduction over runs.  The
    backing table is kept per :attr:`AddressSpace.version` and rebuilt
    only after a split or collapse moved it.
    """

    def __init__(self, samples: IbsSamples, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._backing: Optional[Tuple[AddressSpace, int, PageSampleTable]] = None
        n = len(samples)
        if n == 0:
            self.by_granule = PageSampleTable(
                np.empty(0, dtype=np.int64),
                np.empty((0, n_nodes)),
                np.empty(0, dtype=np.int64),
                0,
                np.empty(0),
            )
            return
        granule, thread, node, store = _sort_batch(samples, n_nodes)
        first = _run_starts(granule)
        starts = np.flatnonzero(first)
        ids = granule[starts]
        k = ids.size
        row = np.repeat(np.arange(k), np.diff(starts, append=n))
        # Integer counts, so bincount's float64 results are exact.
        node_counts = np.bincount(row * n_nodes + node, minlength=k * n_nodes)
        write_counts = np.bincount(
            row, weights=store.astype(np.float64), minlength=k
        )
        # The distinct (granule, thread) pairs: sorted rows start a new
        # pair wherever the granule or the thread changes.
        pair = first.copy()
        pair[1:] |= thread[1:] != thread[:-1]
        self._pair_row = row[pair]
        self._pair_thread = thread[pair]
        self.by_granule = PageSampleTable(
            ids,
            node_counts.reshape(k, n_nodes).astype(np.float64),
            np.bincount(self._pair_row, minlength=k),
            n,
            write_counts,
        )

    @classmethod
    def of(cls, samples: IbsSamples, n_nodes: int) -> "SampleGrouping":
        """The batch's grouping, built on first use and kept on the batch."""
        grouping = samples.grouping
        if grouping is None or grouping.n_nodes != n_nodes:
            grouping = samples.grouping = cls(samples, n_nodes)
        return grouping

    def by_backing(self, address_space: AddressSpace) -> PageSampleTable:
        """The table at the address space's current page sizes."""
        version = address_space.version
        if self._backing is not None:
            space, seen, table = self._backing
            if space is address_space and seen == version:
                return table
        table = _regroup_by_backing(self, address_space)
        self._backing = (address_space, version, table)
        return table


def _regroup_by_backing(
    grouping: SampleGrouping, address_space: AddressSpace
) -> PageSampleTable:
    """Merge a grouping's 4KB rows into one row per backing page."""
    by_granule = grouping.by_granule
    backing, _ = address_space.backing_info(by_granule.ids)
    if np.array_equal(backing, by_granule.ids):
        return by_granule  # every sampled granule is a 4KB page
    first = _run_starts(backing)
    starts = np.flatnonzero(first)
    node_counts = np.add.reduceat(by_granule.node_counts, starts, axis=0)
    write_counts = np.add.reduceat(by_granule.write_counts, starts)
    thread_counts = by_granule.thread_counts[starts]
    # A page with several sampled granules counts its distinct threads
    # over the (granule, thread) pairs of all of them.
    spans = np.diff(starts, append=backing.size) > 1
    if spans.any():
        run = (np.cumsum(first) - 1)[grouping._pair_row]
        keep = spans[run]
        width = int(grouping._pair_thread.max()) + 1
        pairs = np.sort(run[keep] * width + grouping._pair_thread[keep])
        distinct = np.bincount(
            pairs[_run_starts(pairs)] // width, minlength=starts.size
        )
        thread_counts[spans] = distinct[spans]
    ids = backing[starts]
    order = np.argsort(ids, kind="stable")
    return PageSampleTable(
        ids[order],
        node_counts[order],
        thread_counts[order],
        by_granule.n_samples,
        write_counts[order],
    )


def sample_lar(samples: IbsSamples) -> float:
    """Current local access ratio estimated from samples, percent."""
    if len(samples) == 0:
        return 100.0
    local = np.count_nonzero(samples.accessing_node == samples.home_node)
    return 100.0 * local / len(samples)


def sample_imbalance(samples: IbsSamples, n_nodes: int) -> float:
    """Controller imbalance estimated from samples, percent of mean."""
    if len(samples) == 0:
        return 0.0
    per_node = np.bincount(
        samples.home_node.astype(np.int64), minlength=n_nodes
    ).astype(np.float64)
    mean = per_node.mean()
    if mean <= 0:
        return 0.0
    return 100.0 * per_node.std() / mean
