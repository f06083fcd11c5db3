"""The Carrefour placement engine [Dashti et al., ASPLOS'13].

Carrefour gathers per-page access samples and chooses a host node per
page: pages sampled from a single node migrate to that node; pages
sampled from several nodes are *interleaved* (migrated to a random
node).  Global hardware-counter thresholds gate the whole mechanism so
it only acts when a NUMA problem exists (low LAR or high controller
imbalance on a memory-intensive application).

Run over 2MB-backed memory this is the paper's **Carrefour-2M**; the
same engine at 4KB granularity is the original Carrefour.  The engine
is deliberately size-agnostic: it acts on whatever backing pages the
address space currently has, which is what lets Carrefour-LP reuse it
after splitting.

The engine is a *decider*: :meth:`CarrefourEngine.decide_placement`
yields typed :mod:`repro.sim.decisions` and rate-limits its migration
budget on the :class:`~repro.sim.decisions.Outcome` the executor sends
back — it never touches the address space itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Set, TYPE_CHECKING

import numpy as np

from repro._util import rng_for
from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable
from repro.sim.decisions import (
    ChargeCompute,
    Decision,
    Note,
    Outcome,
    ReplicatePage,
    migrate_positions,
)
from repro.sim.policy import PlacementPolicy
from repro.vm.address_space import AddressSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class CarrefourConfig:
    """Thresholds and budgets for the Carrefour engine.

    The enable thresholds follow the Carrefour paper: act only on
    memory-intensive applications (MAPTU above a floor) that show a
    NUMA problem (LAR below ``lar_threshold_pct`` or imbalance above
    ``imbalance_threshold_pct``).  The migration budget rate-limits how
    much memory moves per 1-second interval, modelling the kernel's
    bounded migration throughput.
    """

    min_maptu: float = 50.0
    lar_threshold_pct: float = 80.0
    imbalance_threshold_pct: float = 35.0
    min_samples_per_page: int = 1
    max_migration_bytes_per_interval: int = 512 * 1024 * 1024
    #: Daemon compute cost per processed sample (decision-making).
    compute_s_per_sample: float = 2e-7
    #: Carrefour's third mechanism [Dashti'13]: replicate read-mostly
    #: shared pages onto every node instead of interleaving them.
    replication_enabled: bool = True
    #: Samples a page needs, all of them loads, before it is considered
    #: safely read-only.
    replication_min_samples: int = 6
    #: Leave replication off when free memory is scarce (fraction of
    #: total DRAM that must remain free).
    replication_min_free_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.min_samples_per_page < 1:
            raise ConfigurationError("min_samples_per_page must be >= 1")
        if self.max_migration_bytes_per_interval < 0:
            raise ConfigurationError("migration budget must be non-negative")


class CarrefourEngine:
    """Stateful Carrefour decider over an address space."""

    def __init__(self, config: Optional[CarrefourConfig] = None, seed: int = 0) -> None:
        self.config = config or CarrefourConfig()
        self._rng = rng_for(seed, "carrefour")
        #: Pages already interleaved; not re-randomised every interval
        #: (avoids ping-pong).
        self._interleaved: Set[int] = set()

    def should_engage(self, window: CounterBank) -> bool:
        """Global enable decision from the interval's hardware counters."""
        cfg = self.config
        if window.maptu() < cfg.min_maptu:
            return False
        return (
            window.lar() < cfg.lar_threshold_pct
            or window.imbalance() > cfg.imbalance_threshold_pct
        )

    def decide_placement(
        self,
        table: PageSampleTable,
        address_space: AddressSpace,
        n_nodes: int,
    ) -> Generator[Decision, Outcome, None]:
        """Yield the migrate/interleave decision for every sampled page."""
        cfg = self.config
        yield ChargeCompute(table.n_samples * cfg.compute_s_per_sample)
        if table.ids.size == 0:
            return
        totals = table.totals
        eligible = totals >= cfg.min_samples_per_page
        # Hottest pages first: under a finite budget, moving them pays most.
        order = np.argsort(-totals)
        order = order[eligible[order]]
        single = table.single_node_mask()
        dominant = table.dominant_nodes()
        read_only = table.read_only_mask()
        replication_ok = cfg.replication_enabled and self._memory_headroom(
            address_space
        )
        budget = cfg.max_migration_bytes_per_interval
        ids = table.ids[order]
        # Pages sampled before a split/collapse changed the backing are
        # dead and skipped.
        live = address_space.live_backing_mask(ids)
        single_now = single[order] & live
        shared = ~single[order] & live
        # Shared pages: read-mostly ones with enough evidence are
        # *candidates* for replication, but balance comes first: they
        # are interleaved now (one cheap migration) and upgraded to
        # per-node replicas with whatever budget remains after this
        # pass, otherwise a single interval of expensive copies would
        # leave the hot node standing.
        candidate = shared & read_only[order] & (
            totals[order] >= cfg.replication_min_samples
        )
        candidate &= replication_ok
        shared_ids = ids[shared].tolist()
        interleaved_before = np.zeros(ids.size, dtype=bool)
        interleaved_before[shared] = np.fromiter(
            map(self._interleaved.__contains__, shared_ids),
            dtype=bool,
            count=len(shared_ids),
        )
        draw = shared & ~interleaved_before
        targets = np.where(single_now, dominant[order], 0)
        n_draws = int(np.count_nonzero(draw))
        rng_state = self._rng.bit_generator.state
        if n_draws:
            targets[draw] = self._rng.integers(0, n_nodes, size=n_draws)
        spent, reached = yield from migrate_positions(
            ids, targets, np.flatnonzero(single_now | draw), budget
        )
        # A page-at-a-time loop draws only for the positions it reached:
        # leave the generator where those draws would have left it.
        used_draws = int(np.count_nonzero(draw[:reached]))
        if used_draws < n_draws:
            self._rng.bit_generator.state = rng_state
            if used_draws:
                self._rng.integers(0, n_nodes, size=used_draws)
        head = slice(0, reached)
        self._interleaved.difference_update(ids[head][single_now[head]].tolist())
        self._interleaved.update(ids[head][draw[head]].tolist())
        replication_candidates = ids[head][candidate[head]].tolist()
        if reached < ids.size:
            yield Note("migration budget exhausted")
        budget -= int(spent.sum())

        # Second pass: spend leftover budget upgrading read-mostly
        # shared pages to replicas (hottest first, as ordered above).
        for page_id in replication_candidates:
            if budget <= 0:
                yield Note("replication deferred (budget)")
                break
            if not address_space.backing_is_live(page_id):
                continue
            outcome = yield ReplicatePage(page_id)
            if outcome.applied:
                budget -= outcome.bytes_moved
                self._interleaved.discard(page_id)

    def _memory_headroom(self, address_space: AddressSpace) -> bool:
        """Whether free memory permits replication (Carrefour's gate)."""
        phys = address_space.phys
        total = phys.total_free_bytes + phys.total_used_bytes
        if total <= 0:
            return False
        return (
            phys.total_free_bytes / total
            > self.config.replication_min_free_fraction
        )

    def forget_page(self, page_id: int) -> None:
        """Drop interleave history for a page (e.g. after splitting it)."""
        self._interleaved.discard(page_id)


class CarrefourPolicy(PlacementPolicy):
    """Pure Carrefour as a placement policy.

    ``thp=True`` gives the paper's Carrefour-2M (Linux THP plus
    Carrefour migration/interleaving of whatever pages exist, including
    2MB ones); ``thp=False`` gives the original Carrefour on 4KB pages.
    """

    interval_s = 1.0

    def __init__(
        self,
        thp: bool,
        config: Optional[CarrefourConfig] = None,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.thp = thp
        self.engine = CarrefourEngine(config, seed=seed)
        self.name = name or ("carrefour-2m" if thp else "carrefour-4k")

    def setup(self, sim: "Simulation") -> None:
        if self.thp:
            sim.thp.enable_alloc()
            sim.thp.enable_promotion()
        else:
            sim.thp.disable_alloc()
            sim.thp.disable_promotion()

    def decide(
        self, sim: "Simulation", samples: IbsSamples, window: CounterBank
    ) -> Generator[Decision, Outcome, None]:
        if not self.engine.should_engage(window):
            yield Note("carrefour disabled (thresholds)")
            return
        table = PageSampleTable.from_samples(
            samples, sim.asp, sim.machine.n_nodes, granularity="backing"
        )
        yield from self.engine.decide_placement(
            table, sim.asp, sim.machine.n_nodes
        )
