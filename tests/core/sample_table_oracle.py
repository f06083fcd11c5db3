"""Reference grouping for :class:`repro.core.metrics.PageSampleTable`.

This is the ``np.unique``-based grouping the sort-based one replaced:
every call regroups the whole batch, one ``np.unique`` for the page
ids and one for the distinct (page, thread) pairs.  It stays here as
the oracle the property tests hold the production grouping to.
"""

from __future__ import annotations

import numpy as np

from repro.core.metrics import PageSampleTable
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.vm.address_space import AddressSpace


def oracle_table(
    samples: IbsSamples,
    address_space: AddressSpace,
    n_nodes: int,
    granularity: str = "backing",
) -> PageSampleTable:
    """Group a sample batch by page, from scratch."""
    if granularity not in ("backing", "4k"):
        raise ConfigurationError(f"unknown granularity {granularity!r}")
    if len(samples) == 0:
        return PageSampleTable(
            ids=np.empty(0, dtype=np.int64),
            node_counts=np.empty((0, n_nodes)),
            thread_counts=np.empty(0, dtype=np.int64),
            n_samples=0,
            write_counts=np.empty(0),
        )
    if granularity == "backing":
        keys, _ = address_space.backing_info(samples.granule)
    else:
        keys = np.asarray(samples.granule, dtype=np.int64)
    ids, inverse = np.unique(keys, return_inverse=True)
    flat = inverse * n_nodes + samples.accessing_node.astype(np.int64)
    node_counts = np.bincount(flat, minlength=ids.size * n_nodes).reshape(
        ids.size, n_nodes
    ).astype(np.float64)
    write_counts = np.bincount(
        inverse,
        weights=samples.is_write.astype(np.float64),
        minlength=ids.size,
    )
    threads = samples.thread.astype(np.int64)
    if threads.size and int(threads.min()) < 0:
        raise ConfigurationError("thread ids must be non-negative")
    multiplier = max(65536, int(threads.max()) + 1 if threads.size else 0)
    pair = inverse.astype(np.int64) * multiplier + threads
    unique_pairs = np.unique(pair)
    thread_counts = np.bincount(
        (unique_pairs // multiplier).astype(np.int64), minlength=ids.size
    )
    return PageSampleTable(
        ids=ids,
        node_counts=node_counts,
        thread_counts=thread_counts,
        n_samples=int(len(samples)),
        write_counts=write_counts,
    )
