"""Run (benchmark, machine, policy) combinations and cache the results.

Many experiments share runs — Figures 1-5 all reference the same
Linux and THP baselines — so results are cached at two levels:

* an in-process memo (identity-preserving, so tests can assert
  ``a is b``), keyed by the *complete* run identity;
* the persistent on-disk store in
  :mod:`repro.experiments.cache`, shared across processes and
  sessions and keyed by a full-config fingerprint.

Batch drivers fan independent runs out over worker processes via
:mod:`repro.experiments.parallel`; both layers make that transparent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.experiments.cache import (
    ResultCache,
    cache_enabled,
    normalized_config,
    run_fingerprint,
)
from repro.errors import ConfigurationError
from repro.experiments.configs import make_policy
from repro.hardware.machines import machine_by_name
from repro.hardware.topology import NumaTopology
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.policy import PlacementPolicy
from repro.sim.results import SimulationResult
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class RunSettings:
    """Knobs shared by all runs of one experiment batch.

    ``config.seed`` is the one seed of a run: it instantiates the
    workload and the policy and draws the access streams.  ``seed``
    mirrors it; omitted, it is taken from the config, and a value that
    disagrees with ``config.seed`` raises :class:`ConfigurationError`.
    """

    config: SimConfig = field(default_factory=SimConfig)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seed is None:
            object.__setattr__(self, "seed", self.config.seed)
        elif self.seed != self.config.seed:
            raise ConfigurationError(
                f"RunSettings seed={self.seed} disagrees with"
                f" config.seed={self.config.seed}; config.seed is the"
                " run's one seed"
            )

    @classmethod
    def quick(cls, seed: int = 0) -> "RunSettings":
        """Reduced-cost settings for tests/benchmarks."""
        return cls(config=SimConfig.quick(seed=seed))

    def cache_key(
        self, workload: str, machine: str, policy: str, backing_1g: bool
    ) -> Tuple:
        """In-process memo key covering the complete run identity.

        The whole (hashable, frozen) :class:`SimConfig` participates, so
        configs differing in *any* field — including ``max_epochs``,
        ``khugepaged_batch``, ``ibs_cost_cycles`` or
        ``track_access_stats`` — can never collide.  The result-neutral
        fields named in the config's ``_CACHE_KEY_EXCLUDE``
        (``check_invariants``, ``profile`` and ``trace``) are
        normalised away so runs with and without them share one entry.
        """
        return (
            workload,
            machine,
            policy,
            backing_1g,
            self.seed,
            normalized_config(self.config),
        )

    def fingerprint(
        self, workload: str, machine: str, policy: str, backing_1g: bool
    ) -> str:
        """Persistent-cache key (full-config hash + version stamp)."""
        return run_fingerprint(
            workload, machine, policy, backing_1g, self.config, self.seed
        )


_CACHE: Dict[Tuple, SimulationResult] = {}

#: Guards ``_CACHE``; ``perfbench/workloads.py`` enters it to read the memo.
_MEMO_LOCK = threading.Lock()


def clear_cache() -> None:
    """Drop all in-process memoised run results."""
    with _MEMO_LOCK:
        _CACHE.clear()


def canonical_machine(machine: Union[str, NumaTopology]) -> str:
    """The topology name cache keys are filed under (``A`` -> ``machine-A``)."""
    if isinstance(machine, NumaTopology):
        return machine.name
    return machine_by_name(machine).name


def build_simulation(
    workload: str,
    machine: Union[str, NumaTopology],
    policy: PlacementPolicy,
    settings: RunSettings,
    backing_1g: bool = False,
) -> Simulation:
    """The one place a run's :class:`Simulation` is assembled.

    ``policy`` is a policy object (see
    :func:`~repro.experiments.configs.make_policy`); the workload is
    instantiated on ``machine`` at the settings' scale and seed, and
    ``backing_1g`` backs it with 1GB hugetlbfs-style pages.
    """
    topo = machine_by_name(machine) if isinstance(machine, str) else machine
    instance = get_workload(workload).instantiate(
        topo, settings.config.scale, settings.seed
    )
    if backing_1g:
        instance = instance.with_1g_backing()
    return Simulation(topo, instance, policy, config=settings.config)


def execute_run(
    workload: str,
    machine: Union[str, NumaTopology],
    policy: str,
    settings: RunSettings,
    backing_1g: bool = False,
) -> SimulationResult:
    """Run one simulation with no caching at either level.

    This is the raw unit of work the parallel pool workers execute;
    everything it touches (settings in, result out) is picklable.
    """
    return build_simulation(
        workload,
        machine,
        make_policy(policy, seed=settings.seed),
        settings,
        backing_1g,
    ).run()


def lookup(
    workload: str,
    machine: str,
    policy: str,
    settings: RunSettings,
    backing_1g: bool,
) -> Optional[SimulationResult]:
    """A finished run from the memo, else from the disk store, else None.

    A disk hit is installed in the memo (and not written back to disk),
    so every later lookup of the run in this process is a memo hit.
    """
    key = settings.cache_key(workload, machine, policy, backing_1g)
    with _MEMO_LOCK:
        result = _CACHE.get(key)
    if result is None and cache_enabled():
        result = ResultCache.default().get(
            settings.fingerprint(workload, machine, policy, backing_1g)
        )
        if result is not None:
            with _MEMO_LOCK:
                _CACHE[key] = result
    return result


def store_result(
    workload: str,
    machine: str,
    policy: str,
    settings: RunSettings,
    backing_1g: bool,
    result: SimulationResult,
) -> None:
    """Install a freshly simulated run into the memo and on disk."""
    key = settings.cache_key(workload, machine, policy, backing_1g)
    with _MEMO_LOCK:
        _CACHE[key] = result
    if cache_enabled():
        ResultCache.default().put(
            settings.fingerprint(workload, machine, policy, backing_1g), result
        )


def run_benchmark(
    workload: str,
    machine: Union[str, NumaTopology] = "A",
    policy: str = "thp",
    settings: Optional[RunSettings] = None,
    backing_1g: bool = False,
    use_cache: bool = True,
) -> SimulationResult:
    """Run one benchmark under one policy on one machine.

    ``backing_1g`` backs the workload with 1GB hugetlbfs-style pages
    (Section 4.4); it composes with any policy.  With ``use_cache``
    (the default) the run is answered by :func:`lookup` when it can be
    and stored in both layers when it is simulated;
    ``use_cache=False`` bypasses and populates neither.
    """
    settings = settings or RunSettings()
    topo = machine_by_name(machine) if isinstance(machine, str) else machine
    if not use_cache:
        return execute_run(workload, topo, policy, settings, backing_1g)
    result = lookup(workload, topo.name, policy, settings, backing_1g)
    if result is None:
        result = execute_run(workload, topo, policy, settings, backing_1g)
        store_result(workload, topo.name, policy, settings, backing_1g, result)
    return result


def improvement(
    workload: str,
    machine: Union[str, NumaTopology],
    policy: str,
    baseline: str = "linux-4k",
    settings: Optional[RunSettings] = None,
    backing_1g: bool = False,
    baseline_backing_1g: bool = False,
) -> float:
    """Percent performance improvement of ``policy`` over ``baseline``.

    Matches the paper's figures: positive means the policy runs faster
    than the baseline on the same workload and machine.
    """
    result = run_benchmark(
        workload, machine, policy, settings, backing_1g=backing_1g
    )
    base = run_benchmark(
        workload, machine, baseline, settings, backing_1g=baseline_backing_1g
    )
    return result.improvement_over(base)
