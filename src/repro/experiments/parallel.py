"""Parallel fan-out of independent simulation runs.

Simulations are deterministic and share no state, so a batch of
(workload, machine, policy, backing) combinations is embarrassingly
parallel.  :class:`GridRunner` collects the full grid for an
experiment batch, deduplicates it (figures share their Linux/THP
baselines), answers what it can from the two cache layers, and fans
the misses out over a :class:`concurrent.futures.ProcessPoolExecutor`.

``jobs`` is the only parallelism setting: explicit argument, then the
``REPRO_JOBS`` environment variable, then ``os.cpu_count() - 1``,
clamped to ``[1, os.cpu_count()]``.  ``jobs > 1`` runs the misses in a
worker pool; ``jobs = 1`` — and any platform where a pool cannot be
built (no ``fork``, sandboxed semaphores) — runs them in an in-process
loop with identical results, since every run is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner as _runner
from repro.experiments.runner import RunSettings
from repro.sim.results import SimulationResult

#: Environment variable selecting the default worker count.
JOBS_ENV = "REPRO_JOBS"


@dataclass(frozen=True)
class RunSpec:
    """One deduplicable unit of work: a single simulation run."""

    workload: str
    machine: str = "A"
    policy: str = "thp"
    backing_1g: bool = False

    def describe(self) -> str:
        """Short label for logs and progress lines."""
        suffix = "+1g" if self.backing_1g else ""
        return f"{self.workload}@{self.machine}/{self.policy}{suffix}"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > cpu_count - 1.

    Clamped to ``os.cpu_count()``: workers are CPU-bound, so
    oversubscribing cores only adds scheduler churn (and benchmark
    numbers taken that way report meaningless "parallel" speedups).
    One core therefore always resolves to one job.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus - 1
    return max(1, min(int(jobs), cpus))


def backend_choice() -> Tuple[str, str]:
    """How a grid runs by default (``process`` or ``serial``), and why.

    Derived from :func:`resolve_jobs` alone: ``process`` exactly when it
    resolves to more than one job.  The reason string is what the
    benchmarks record as ``backend_reason``.
    """
    jobs = resolve_jobs()
    backend = "process" if jobs > 1 else "serial"
    return backend, f"jobs={jobs}, cpu_count={os.cpu_count() or 1} -> {backend}"


def _pool_execute(
    spec: RunSpec, settings: RunSettings
) -> Tuple[RunSpec, SimulationResult]:
    """Worker-side entry point: run one spec, uncached."""
    result = _runner.execute_run(
        spec.workload, spec.machine, spec.policy, settings, spec.backing_1g
    )
    return spec, result


class GridRunner:
    """Collects a run grid, then executes it cache-aware and in parallel.

    Usage::

        grid = GridRunner(settings)
        grid.add("CG.D", "B", "thp")
        grid.add_grid(["CG.D", "UA.B"], ["A", "B"], ["linux-4k", "thp"])
        results = grid.run(jobs=4)   # {RunSpec: SimulationResult}

    ``run`` leaves every result installed in the runner's in-process
    memo (and the persistent store), so subsequent
    :func:`repro.experiments.runner.run_benchmark` calls for the same
    settings are hits.
    """

    def __init__(
        self, settings: Optional[RunSettings] = None, jobs: Optional[int] = None
    ) -> None:
        self.settings = settings or RunSettings()
        self.jobs = jobs
        self._specs: List[RunSpec] = []
        self._seen: set = set()

    # ------------------------------------------------------------------
    # Grid assembly
    # ------------------------------------------------------------------
    def add(
        self,
        workload: str,
        machine: str = "A",
        policy: str = "thp",
        backing_1g: bool = False,
    ) -> "GridRunner":
        """Queue one run; duplicates are dropped (shared baselines)."""
        spec = RunSpec(workload, machine, policy, backing_1g)
        if spec not in self._seen:
            self._seen.add(spec)
            self._specs.append(spec)
        return self

    def add_spec(self, spec: RunSpec) -> "GridRunner":
        """Queue one pre-built :class:`RunSpec`."""
        return self.add(spec.workload, spec.machine, spec.policy, spec.backing_1g)

    def add_grid(
        self,
        workloads: Sequence[str],
        machines: Sequence[str],
        policies: Sequence[str],
        backing_1g: bool = False,
    ) -> "GridRunner":
        """Queue the cross product workloads x machines x policies."""
        for wl in workloads:
            for machine in machines:
                for policy in policies:
                    self.add(wl, machine, policy, backing_1g)
        return self

    @property
    def specs(self) -> List[RunSpec]:
        """The deduplicated grid, in insertion order."""
        return list(self._specs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _partition(
        self,
    ) -> Tuple[Dict[RunSpec, SimulationResult], List[RunSpec]]:
        """Split the grid into (cache hits, misses to execute)."""
        hits: Dict[RunSpec, SimulationResult] = {}
        misses: List[RunSpec] = []
        for spec in self._specs:
            cached = _runner.lookup(
                spec.workload,
                _runner.canonical_machine(spec.machine),
                spec.policy,
                self.settings,
                spec.backing_1g,
            )
            if cached is None:
                misses.append(spec)
            else:
                hits[spec] = cached
        return hits, misses

    def _run_serial(self, misses: List[RunSpec]) -> Dict[RunSpec, SimulationResult]:
        results = {}
        for spec in misses:
            _, result = _pool_execute(spec, self.settings)
            results[spec] = result
        return results

    def _run_pool(
        self, misses: List[RunSpec], jobs: int
    ) -> Dict[RunSpec, SimulationResult]:
        import concurrent.futures
        import multiprocessing

        # fork skips re-importing numpy/repro in every worker; the
        # default method elsewhere (spawn) works too, just slower.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        results: Dict[RunSpec, SimulationResult] = {}
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(misses)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_pool_execute, spec, self.settings) for spec in misses
            ]
            for future in concurrent.futures.as_completed(futures):
                spec, result = future.result()
                results[spec] = result
        return results

    def run(
        self, jobs: Optional[int] = None, use_cache: bool = True
    ) -> Dict[RunSpec, SimulationResult]:
        """Execute the grid; returns ``{spec: result}`` in grid order.

        Cached specs are answered without work.  The misses run in a
        worker pool when ``jobs`` resolves to more than one, else in
        this process.  Fresh results are installed into both cache
        layers so later ``run_benchmark`` calls (the experiment
        drivers' inner loops) are pure hits.
        """
        if use_cache:
            hits, misses = self._partition()
        else:
            hits, misses = {}, list(self._specs)
        n_jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        if misses:
            if n_jobs <= 1:
                fresh = self._run_serial(misses)
            else:
                try:
                    fresh = self._run_pool(misses, n_jobs)
                except (OSError, ImportError, PermissionError, RuntimeError):
                    # No usable multiprocessing on this platform.
                    fresh = self._run_serial(misses)
            for spec, result in fresh.items():
                if use_cache:
                    _runner.store_result(
                        spec.workload,
                        _runner.canonical_machine(spec.machine),
                        spec.policy,
                        self.settings,
                        spec.backing_1g,
                        result,
                    )
                hits[spec] = result
        return {spec: hits[spec] for spec in self._specs}


def prefetch(
    specs: Iterable[RunSpec],
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
) -> Dict[RunSpec, SimulationResult]:
    """Warm both cache layers for a batch of runs, in parallel.

    The experiment drivers call this with their full grid before their
    (serial, report-building) inner loops; with ``jobs`` resolving to 1
    it is a no-op and the driver's own ``run_benchmark`` calls do the
    work exactly as before.
    """
    grid = GridRunner(settings, jobs=jobs)
    for spec in specs:
        grid.add_spec(spec)
    if not grid.specs or resolve_jobs(jobs) <= 1:
        return {}
    return grid.run()
