"""Per-layer tracing for the benchmark's traced passes.

The benchmark changes nothing inside the program: it replaces a fixed
list of public functions (``TARGETS``) with timing wrappers installed
from here, and reads the counters the program already keeps
(``ActionExecutor.decisions_*`` and ``totals``, the engine's
``PhaseTimer``).  Only per-interval and per-epoch boundaries are
wrapped, plus ``AddressSpace.migrate_backing`` and ``collapse_chunk``,
whose busy time the policy-daemon and colocation metrics need;
per-page *counts* always come from the program's own counters.

Busy time is counted at the outermost call of a target; self time is
busy time minus the time of traced children.  Spans are kept only as
per-target aggregates in memory.  Every traced function runs on the
thread that called into the program (the stream bank's prefill thread
calls none of them), so one span stack suffices.

Pool workers forked by ``experiments.parallel`` inherit the wrappers;
each worker resets its inherited state on its first task and writes
its aggregates to ``<dump_dir>/worker-<pid>.json`` after every task,
which the pass merges into its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, metric prefix, exported statistics).  The
#: prefix is ``<module under repro>.<qualname>``, except where that
#: would exceed the 64-letter metric-name limit, where the class name
#: is dropped (``hardware.mem_controller.latency_cycles``).
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    # Policy daemon.
    ("repro.sim.engine", "ActionExecutor.run_interval",
     "sim.engine.ActionExecutor.run_interval", ("calls", "busy_s", "self_s")),
    ("repro.vm.address_space", "AddressSpace.migrate_backing",
     "vm.address_space.migrate_backing", ("busy_s",)),
    # TLB model.
    ("repro.hardware.tlb", "TlbModel.epoch_result_grouped",
     "hardware.tlb.TlbModel.epoch_result_grouped", ("calls", "busy_s")),
    ("repro.hardware.caches", "che_characteristic_time_grouped",
     "hardware.caches.che_characteristic_time_grouped", ("calls", "busy_s")),
    ("repro.hardware.caches", "CacheModel.walk_l2_miss_rate_grouped",
     "hardware.caches.CacheModel.walk_l2_miss_rate_grouped", ("busy_s",)),
    # Stream bank and tracker.
    ("repro.workloads.streambank", "StreamBank.epoch_arrays",
     "workloads.streambank.StreamBank.epoch_arrays", ("busy_s",)),
    ("repro.workloads.streambank", "get_stream_bank",
     "workloads.streambank.get_stream_bank", ("calls",)),
    ("repro.workloads.streambank", "StreamBank.__init__",
     "workloads.streambank.StreamBank.__init__", ()),
    ("repro.sim.tracker", "AccessTracker.add_epoch",
     "sim.tracker.AccessTracker.add_epoch", ("busy_s",)),
    ("repro.sim.tracker", "AccessTracker.merge_epoch_sharing",
     "sim.tracker.AccessTracker.merge_epoch_sharing", ("busy_s",)),
    # Runner, cache and pool.
    ("repro.experiments.runner", "run_benchmark",
     "experiments.runner.run_benchmark", ("calls",)),
    ("repro.experiments.runner", "execute_run",
     "experiments.runner.execute_run", ("calls", "busy_s")),
    ("repro.experiments.cache", "ResultCache.get",
     "experiments.cache.ResultCache.get", ("calls", "busy_s")),
    ("repro.experiments.cache", "ResultCache.put",
     "experiments.cache.ResultCache.put", ("calls", "busy_s")),
    ("repro.experiments.parallel", "GridRunner.run",
     "experiments.parallel.GridRunner.run", ("busy_s",)),
    # Engine and host.
    ("repro.sim.engine", "Tenant.step",
     "sim.engine.Tenant.step", ("calls", "busy_s", "self_s")),
    ("repro.sim.host", "Host.step_epoch",
     "sim.host.Host.step_epoch", ("self_s",)),
    ("repro.sim.host", "Host.apply_pressure",
     "sim.host.Host.apply_pressure", ("busy_s",)),
    ("repro.vm.thp", "khugepaged_scan",
     "vm.thp.khugepaged_scan", ("busy_s",)),
    ("repro.vm.address_space", "AddressSpace.collapse_chunk",
     "vm.address_space.collapse_chunk", ("calls", "busy_s")),
    ("repro.hardware.ibs", "IbsEngine.record_epoch_batch",
     "hardware.ibs.IbsEngine.record_epoch_batch", ("busy_s",)),
    ("repro.hardware.mem_controller", "MemoryControllerModel.latency_cycles",
     "hardware.mem_controller.latency_cycles", ("busy_s",)),
    ("repro.hardware.interconnect", "InterconnectModel.hop_latency_matrix",
     "hardware.interconnect.hop_latency_matrix", ("busy_s",)),
    # Invariant checking (only runs in the pass with checking on).
    ("repro.analysis.invariants", "InvariantChecker.after_epoch",
     "analysis.invariants.InvariantChecker.after_epoch", ("calls", "busy_s")),
    ("repro.analysis.invariants", "HostInvariantChecker.after_epoch",
     "analysis.invariants.HostInvariantChecker.after_epoch", ("busy_s",)),
)

#: Targets called once per page, timed by the cheaper ``Tracer._leaf``
#: wrapper; they call no other target.
LEAVES = frozenset({"vm.address_space.migrate_backing",
                    "vm.address_space.collapse_chunk"})

#: ``PolicyActionSummary`` fields exported as ``policy.<field>``.
POLICY_TOTALS = ("migrated_4k", "migrated_2m", "splits_2m", "collapses_2m",
                 "bytes_migrated")

#: Engine phases of ``repro.sim.profile.PHASES`` (checked at install).
PHASES = ("premap", "stream_bank", "streams", "tlb", "tracker", "ibs",
          "pricing", "maintenance", "policy", "other")

#: Benchmark-level figures of a traced run (see ``run.py``).
BENCH_METRICS = (
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.error_rate", "ratio"),
)

_STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    units = {}
    for _, _, prefix, stats in TARGETS:
        for stat in stats:
            units[f"{prefix}.{stat}"] = _STAT_UNITS[stat]
    units.update({
        "policy.decisions_seen": "count",
        "policy.decisions_applied": "count",
        "policy.applied_ratio": "ratio",
    })
    for name in POLICY_TOTALS:
        units[f"policy.{name}"] = "B" if name.startswith("bytes") else "count"
    units.update({
        "streambank.banks_built": "count",
        "streambank.reuse_ratio": "ratio",
        "runner.memo_hit_ratio": "ratio",
        "cache.hit_ratio": "ratio",
        "parallel.worker_cpu_s": "s",
        "parallel.utilisation": "ratio",
    })
    for phase in PHASES:
        units[f"sim.profile.phase.{phase}_s"] = "s"
    units.update(dict(BENCH_METRICS))
    return units


class Tracer:
    """Aggregated spans and counters for one pass process."""

    def __init__(self, dump_dir: Optional[str] = None) -> None:
        self.dump_dir = dump_dir
        self.owner_pid = self.pid = os.getpid()
        #: Targets ``install`` could not find (their metrics read 0).
        self.missing: List[str] = []
        # One frame per open span: [child seconds, traced child calls].
        # Cleared in place by reset(): the wrappers hold these objects.
        self._stack: List[list] = []
        self._active: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (a forked worker's start)."""
        self.calls: Dict[str, int] = {}
        self.leaf_calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._stack.clear()
        self._active.clear()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] = depth
                self.calls[name] = self.calls.get(name, 0) + 1
                if frame[1] == 0:
                    self.leaf_calls[name] = self.leaf_calls.get(name, 0) + 1
                if depth == 0:
                    self.busy[name] = self.busy.get(name, 0.0) + dt
                self.self_time[name] = (
                    self.self_time.get(name, 0.0) + dt - frame[0])
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        """A cheaper wrapper for per-page functions with no traced callees."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dt
            if stack:
                stack[-1][0] += dt
                stack[-1][1] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, plus the hooks that read program counters."""
        from repro.sim import profile

        if tuple(profile.PHASES) != PHASES:
            self.missing.append(f"engine phases {profile.PHASES}")
        hooks = {"experiments.cache.ResultCache.get": self._after_cache_get}
        patches = [
            (module, attr,
             (lambda fn, p=prefix: self._leaf(p, fn)) if prefix in LEAVES
             else (lambda fn, p=prefix: self._timed(p, fn, hooks.get(p))))
            for module, attr, prefix, _ in TARGETS
        ]
        patches += [
            ("repro.sim.engine", "Tenant.result",
             lambda fn: self._timed("sim.engine.Tenant.result", fn,
                                    self._after_result)),
            ("repro.experiments.parallel", "_pool_execute",
             self._worker_entry),
        ]
        for module, attr, make in patches:
            if not _patch(module, attr, make):
                self.missing.append(f"{module}.{attr}")

    def _after_cache_get(self, args, result) -> None:
        if result is not None:
            self.count("cache.hits")

    def _after_result(self, args, result) -> None:
        """Fold a finished tenant's executor counters and phase times."""
        tenant = args[0]
        executor = tenant.executor
        self.count("policy.decisions_seen", executor.decisions_seen)
        self.count("policy.decisions_applied", executor.decisions_applied)
        for name in POLICY_TOTALS:
            self.count(f"policy.{name}", getattr(executor.totals, name))
        if tenant.profiler is not None:
            for phase, seconds in tenant.profiler.phase_s.items():
                self.count(f"sim.profile.phase.{phase}_s", seconds)

    def _worker_entry(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid == self.owner_pid or self.dump_dir is None:
                return fn(*args, **kwargs)
            if pid != self.pid:
                self.pid = pid
                self.reset()
            result = fn(*args, **kwargs)
            path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
            with open(path, "w") as fh:
                json.dump(self.snapshot(), fh)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": self.calls, "leaf_calls": self.leaf_calls,
            "busy": self.busy, "self": self.self_time,
            "counters": self.counters,
        }

    def merge(self, snap: dict) -> None:
        """Add another process's snapshot (a pool worker's) to this one."""
        for mine, key in ((self.calls, "calls"),
                          (self.leaf_calls, "leaf_calls"),
                          (self.busy, "busy"), (self.self_time, "self"),
                          (self.counters, "counters")):
            for name, value in snap[key].items():
                mine[name] = mine.get(name, 0) + value

    def merge_worker_dumps(self) -> None:
        if self.dump_dir is None:
            return
        for entry in sorted(os.listdir(self.dump_dir)):
            if entry.startswith("worker-"):
                with open(os.path.join(self.dump_dir, entry)) as fh:
                    self.merge(json.load(fh))

    def metrics(self, jobs: int, worker_cpu_s: float) -> Dict[str, float]:
        """The per-layer metrics of ``metric_units()`` except ``bench.*``."""
        out: Dict[str, float] = {}
        for _, _, prefix, stats in TARGETS:
            for stat in stats:
                source = {"calls": self.calls, "busy_s": self.busy,
                          "self_s": self.self_time}[stat]
                out[f"{prefix}.{stat}"] = source.get(prefix, 0)
        c = self.counters
        seen = c.get("policy.decisions_seen", 0)
        out["policy.decisions_seen"] = seen
        out["policy.decisions_applied"] = c.get("policy.decisions_applied", 0)
        out["policy.applied_ratio"] = _ratio(
            out["policy.decisions_applied"], seen)
        for name in POLICY_TOTALS:
            out[f"policy.{name}"] = c.get(f"policy.{name}", 0)
        built = self.calls.get("workloads.streambank.StreamBank.__init__", 0)
        fetched = self.calls.get("workloads.streambank.get_stream_bank", 0)
        out["streambank.banks_built"] = built
        out["streambank.reuse_ratio"] = _ratio(fetched - built, fetched)
        # A memo hit is a run_benchmark call that reached neither the
        # disk cache nor the engine: no traced callee ran inside it.
        runs = self.calls.get("experiments.runner.run_benchmark", 0)
        out["runner.memo_hit_ratio"] = _ratio(
            self.leaf_calls.get("experiments.runner.run_benchmark", 0), runs)
        out["cache.hit_ratio"] = _ratio(
            c.get("cache.hits", 0),
            self.calls.get("experiments.cache.ResultCache.get", 0))
        pool_s = self.busy.get("experiments.parallel.GridRunner.run", 0.0)
        out["parallel.worker_cpu_s"] = worker_cpu_s
        out["parallel.utilisation"] = _ratio(worker_cpu_s, jobs * pool_s)
        for phase in PHASES:
            name = f"sim.profile.phase.{phase}_s"
            out[name] = c.get(name, 0.0)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _patch(module_name: str, attr: str, make: Callable) -> bool:
    """Replace ``module.attr`` (``Class.method`` allowed) by ``make(fn)``.

    A module-level function is also replaced in every loaded ``repro``
    module that imported it by name, so callers see the wrapper.
    Returns False when the target does not exist.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner_name, _, fn_name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = vars(owner).get(fn_name) if owner is not None else None
    if original is None:
        return False
    wrapper = make(original)
    setattr(owner, fn_name, wrapper)
    if owner_name:
        return True
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and mod is not None:
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, wrapper)
    return True
