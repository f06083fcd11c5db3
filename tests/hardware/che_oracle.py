"""Per-item Che/LRU reference path: the oracle of the grouped TLB model.

Before the TLB model took grouped popularity, it priced every epoch
from per-page access-count vectors.  That path has no production caller
any more; it lives here only so the tests can check the grouped,
memoized path (:mod:`repro.hardware.caches`, :mod:`repro.hardware.tlb`)
against a direct per-item evaluation of Che's approximation.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.caches import _MAX_BISECTION_STEPS, CacheModel
from repro.hardware.tlb import TlbEpochResult, TlbModel
from repro.vm.layout import PageSize


def che_characteristic_time(popularity: np.ndarray, capacity: int) -> float:
    """Solve for the characteristic time ``T_C`` of an LRU cache.

    Parameters
    ----------
    popularity:
        Per-item access probabilities.  Must be non-negative; zero
        entries are allowed and ignored.  Need not sum to one (it is
        normalised internally).
    capacity:
        Cache capacity in items; must be positive.

    Returns
    -------
    float
        ``T_C`` in units of accesses.  ``inf`` when every distinct item
        fits in the cache (the hit rate is then 1).
    """
    if capacity <= 0:
        raise ConfigurationError("cache capacity must be positive")
    p = np.asarray(popularity, dtype=np.float64)
    if p.ndim != 1:
        raise ConfigurationError("popularity must be a 1-D array")
    if p.size and float(np.min(p)) < 0:
        raise ConfigurationError("popularity values must be non-negative")
    p = p[p > 0]
    if p.size == 0 or p.size <= capacity:
        return float("inf")
    total = float(np.sum(p))
    p = p / total

    def occupied(t: float) -> float:
        return float(np.sum(-np.expm1(-p * t)))

    lo, hi = 0.0, float(capacity)
    # Grow hi until the occupancy at hi exceeds the capacity.
    while occupied(hi) < capacity:
        lo = hi
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - numeric guard
            return hi
    for _ in range(_MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if occupied(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lru_hit_rate(popularity: np.ndarray, capacity: int) -> float:
    """Aggregate hit rate of an LRU cache under Che's approximation.

    Returns the access-weighted hit probability in ``[0, 1]``.
    """
    p = np.asarray(popularity, dtype=np.float64)
    p = p[p > 0]
    if p.size == 0:
        return 1.0
    t_c = che_characteristic_time(p, capacity)
    if np.isinf(t_c):
        return 1.0
    p = p / float(np.sum(p))
    hit = float(np.sum(p * -np.expm1(-p * t_c)))
    return min(max(hit, 0.0), 1.0)


def walk_l2_miss_rate(model: CacheModel, page_popularity: np.ndarray) -> float:
    """Probability that a page-walk leaf reference misses in L2.

    ``page_popularity`` is the per-page access-count vector of the
    epoch (any non-negative weights).  Consecutive pages share PTE
    cache lines, so the popularity vector is folded by
    ``model.ptes_per_line`` before applying the LRU model.
    """
    counts = np.asarray(page_popularity, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 0.0
    pad = (-counts.size) % model.ptes_per_line
    if pad:
        counts = np.concatenate([counts, np.zeros(pad)])
    lines = counts.reshape(-1, model.ptes_per_line).sum(axis=1)
    return 1.0 - lru_hit_rate(lines, model.l2_lines_for_walks)


def epoch_result(
    model: TlbModel,
    counts_by_size: Mapping[PageSize, np.ndarray],
    represented_accesses: float,
) -> TlbEpochResult:
    """TLB behaviour of one thread for one epoch.

    Parameters
    ----------
    model:
        The TLB model whose capacities and walk costs apply.
    counts_by_size:
        For each page-size class, the per-page access-count vector
        of the epoch's *sampled* stream (page identity is
        irrelevant; only the popularity shape matters).
    represented_accesses:
        Total memory accesses the sampled stream stands for; misses
        are scaled to this.
    """
    if represented_accesses < 0:
        raise ConfigurationError("represented_accesses must be non-negative")
    total_sampled = sum(
        float(np.sum(counts_by_size[size]))
        for size in sorted(counts_by_size)
        if counts_by_size[size] is not None
    )
    if total_sampled <= 0:
        return TlbEpochResult(0.0, 0.0, 0.0, 0.0)

    misses = 0.0
    walk_l2_misses = 0.0
    for size, counts in sorted(counts_by_size.items()):
        if counts is None:
            continue
        counts = np.asarray(counts, dtype=np.float64)
        counts = counts[counts > 0]
        if counts.size == 0:
            continue
        share = float(np.sum(counts)) / total_sampled
        accesses = represented_accesses * share
        hit = lru_hit_rate(counts, model.spec.entries_for(size))
        size_misses = accesses * (1.0 - hit)
        misses += size_misses
        # Each miss walks the page table; the leaf PTE reference may
        # miss in L2 depending on the PTE working set.
        l2_miss_rate = walk_l2_miss_rate(model.cache_model, counts)
        walk_l2_misses += size_misses * l2_miss_rate

    walk_cycles = (
        misses * model.spec.walk_base_cycles
        + walk_l2_misses * model.cache_model.l2_miss_penalty_cycles
    )
    miss_rate = misses / represented_accesses if represented_accesses else 0.0
    return TlbEpochResult(
        misses=misses,
        walk_cycles=walk_cycles,
        walk_l2_misses=walk_l2_misses,
        miss_rate=min(miss_rate, 1.0),
    )


def split_counts_by_size(
    backing_ids: np.ndarray, backing_sizes: np.ndarray
) -> Dict[PageSize, np.ndarray]:
    """Group an access stream into per-size page popularity vectors.

    ``backing_ids`` are opaque page identifiers (one per access);
    ``backing_sizes`` the page-size class of each access.  Returns, per
    size, the access-count vector over distinct pages.
    """
    out: Dict[PageSize, np.ndarray] = {}
    sizes = np.asarray(backing_sizes)
    ids = np.asarray(backing_ids)
    for size in PageSize:
        mask = sizes == int(size)
        if not np.any(mask):
            continue
        _, counts = np.unique(ids[mask], return_counts=True)
        out[size] = counts.astype(np.float64)
    return out
