"""A model of Linux AutoNUMA (NUMA balancing) as a baseline policy.

Mainline Linux's answer to NUMA placement is *NUMA balancing*: a
per-task scanner periodically write-protects windows of the address
space; the resulting *hint faults* reveal which node touches each page,
and a page that faults from the same remote node twice in a row (the
two-stage filter) is migrated there.

This is the natural comparison point for Carrefour-LP because NUMA
balancing shares Carrefour's blind spots — and adds its own:

* it migrates whole huge pages and never splits them, so the hot-page
  effect and page-level false sharing are out of reach;
* pages genuinely shared by several nodes *ping-pong*: each interval
  they hop to the most recent faulting node instead of being
  interleaved once;
* hint faults cost real time on every sampled access (scan overhead),
  unlike IBS sampling which is interrupt-driven and sparse.

The model drives the same decision rule from the simulated access
stream: sampled accesses stand in for hint faults, a per-page
(last_node, streak) table implements the two-stage filter, and
migrations are charged through the usual cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable
from repro.sim.decisions import (
    ChargeCompute,
    Decision,
    Note,
    Outcome,
    migrate_positions,
)
from repro.sim.policy import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class AutoNumaConfig:
    """Tunables of the NUMA-balancing model.

    ``hint_fault_cost_s`` is the handler cost of one hint fault
    (protection fault + bookkeeping); the scanner effectively converts
    the sampled accesses of each interval into hint faults.
    ``migrate_streak`` is the two-stage filter: a page moves only after
    this many consecutive faults from the same remote node.
    """

    hint_fault_cost_s: float = 1.2e-6
    migrate_streak: int = 2
    max_migration_bytes_per_interval: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.hint_fault_cost_s < 0:
            raise ConfigurationError("hint_fault_cost_s must be non-negative")
        if self.migrate_streak < 1:
            raise ConfigurationError("migrate_streak must be >= 1")
        if self.max_migration_bytes_per_interval < 0:
            raise ConfigurationError("migration budget must be non-negative")


class AutoNumaPolicy(PlacementPolicy):
    """Linux NUMA balancing: hint-fault-driven migrate-to-accessor.

    ``thp=True`` models mainline defaults (NUMA balancing and THP both
    on); ``thp=False`` isolates the balancing behaviour on 4KB pages.
    """

    interval_s = 1.0

    def __init__(
        self,
        thp: bool = True,
        config: Optional[AutoNumaConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.thp = thp
        self.config = config or AutoNumaConfig()
        self.name = name or ("autonuma" if thp else "autonuma-4k")
        #: page id -> (last faulting node, consecutive-fault streak)
        self._streaks: Dict[int, Tuple[int, int]] = {}

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
        # Every sampled access is a hint fault the scanner provoked.
        yield ChargeCompute(len(samples) * self.config.hint_fault_cost_s)
        if len(samples) == 0:
            return
        table = PageSampleTable.from_samples(
            samples, sim.asp, sim.machine.n_nodes, granularity="backing"
        )
        order = np.argsort(-table.totals)
        ids = table.ids[order]
        nodes = table.dominant_nodes()[order]
        live = sim.asp.live_backing_mask(ids)
        # The two-stage filter: a page's streak grows while consecutive
        # intervals fault it from the same node.
        prev = np.array(
            [self._streaks.get(page_id, (-1, 0)) for page_id in ids[live].tolist()],
            dtype=np.int64,
        ).reshape(-1, 2)
        streaks = np.zeros(ids.size, dtype=np.int64)
        streaks[live] = np.where(nodes[live] == prev[:, 0], prev[:, 1] + 1, 1)
        _, reached = yield from migrate_positions(
            ids,
            nodes,
            np.flatnonzero(streaks >= self.config.migrate_streak),
            self.config.max_migration_bytes_per_interval,
        )
        # Only the positions reached update the streak table.
        head = slice(0, reached)
        for page_id in ids[head][~live[head]].tolist():
            self._streaks.pop(page_id, None)
        kept = live[head]
        self._streaks.update(
            zip(
                ids[head][kept].tolist(),
                zip(nodes[head][kept].tolist(), streaks[head][kept].tolist()),
            )
        )
        if reached < ids.size:
            yield Note("migration budget exhausted")
