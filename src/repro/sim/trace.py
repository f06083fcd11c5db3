"""JSONL decision tracing for the policy layer.

Every daemon interval the :class:`~repro.sim.engine.ActionExecutor`
applies typed decisions against the address space; when tracing is
enabled (``REPRO_TRACE=1`` in the environment, or ``SimConfig.trace``),
the engine owns a :class:`DecisionTrace` and the executor records every
decision together with its outcome — what was decided, by which
decider, at what simulated time, and what actually happened (applied /
skipped / bytes moved).  ``repro trace`` runs one benchmark with the
trace on and ``REPRO_TRACE_FILE`` appends the records as JSON lines.

Tracing is **result-neutral**: it never touches simulation state, the
records live on the engine (not in ``SimulationResult``), and
``SimConfig.trace`` sits in ``_CACHE_KEY_EXCLUDE`` — so a traced run is
bit-identical to an untraced one and shares its cache entries, exactly
like ``profile`` and ``check_invariants``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro._util import env_flag

#: Environment variable enabling (``1``) or force-disabling (``0``) the
#: trace regardless of :attr:`SimConfig.trace`.
TRACE_ENV = "REPRO_TRACE"

#: When set, :meth:`DecisionTrace.flush_env` appends the records here
#: as JSON lines at the end of each traced run.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: Static-analysis registry (rule R101): tracing is observation-only
#: and must have no transitive write effect on simulation state.
_RESULT_NEUTRAL = ("sim.trace",)


def trace_enabled(config: Optional[object] = None) -> bool:
    """Whether decision tracing is on for a run.

    ``REPRO_TRACE`` wins in both directions when set; otherwise the
    (optional) config's ``trace`` flag decides.
    """
    return env_flag(TRACE_ENV, getattr(config, "trace", False))


class DecisionTrace:
    """Accumulates one run's decision records.

    Each record is a flat JSON-able dict: simulated time, epoch, the
    decider that yielded the decision, the decision payload, and the
    executor's outcome.
    """

    def __init__(self, context: Optional[Dict[str, object]] = None) -> None:
        #: Run identification (workload/machine/policy/seed), written as
        #: a header line ahead of the records.
        self.context: Dict[str, object] = dict(context or {})
        self.records: List[Dict[str, object]] = []

    def record(
        self, time_s: float, epoch: int, source: str, decision, outcome
    ) -> None:
        """Append one decision + outcome record."""
        self.records.append(
            {
                "t": time_s,
                "epoch": epoch,
                "source": source,
                "decision": decision.payload(),
                "applied": outcome.applied,
                "bytes": outcome.bytes_moved,
                "count": outcome.count,
                "reason": outcome.reason,
            }
        )

    def counts(self) -> Dict[str, int]:
        """Number of recorded decisions per decision kind."""
        out: Dict[str, int] = {}
        for rec in self.records:
            kind = rec["decision"]["kind"]  # type: ignore[index]
            out[kind] = out.get(kind, 0) + 1
        return out

    def render(self) -> str:
        """Human-readable per-kind tally."""
        counts = self.counts()
        applied = sum(1 for rec in self.records if rec["applied"])
        lines = [
            f"{len(self.records)} decisions recorded "
            f"({applied} applied, {len(self.records) - applied} skipped)"
        ]
        for kind in sorted(counts):
            lines.append(f"  {kind:<20} {counts[kind]}")
        return "\n".join(lines)

    def write_jsonl(self, path, append: bool = False) -> None:
        """Write a header line plus one JSON line per record."""
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(json.dumps({"trace": self.context}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")

    def flush_env(self) -> None:
        """Append the records to ``REPRO_TRACE_FILE`` when it is set."""
        import os

        path = os.environ.get(TRACE_FILE_ENV, "").strip()
        if not path:
            return
        self.write_jsonl(path, append=True)


def run_traced(
    workload: str,
    machine: str = "A",
    policy: str = "thp",
    settings: Optional[object] = None,
    backing_1g: bool = False,
) -> Tuple[object, DecisionTrace]:
    """Run one benchmark uncached with decision tracing on.

    Returns ``(SimulationResult, DecisionTrace)``.  The run bypasses
    both cache layers (the point is to watch the decisions being made)
    and the result is bit-identical to what the cached path would
    produce for the same settings.  Imports are deferred so this module
    stays importable from the engine without a ``sim`` ->
    ``experiments`` cycle.
    """
    import dataclasses

    from repro.experiments.configs import make_policy
    from repro.experiments.runner import RunSettings, build_simulation

    if settings is None:
        settings = RunSettings()
    settings = dataclasses.replace(
        settings, config=dataclasses.replace(settings.config, trace=True)
    )
    sim = build_simulation(
        workload,
        machine,
        make_policy(policy, seed=settings.seed),
        settings,
        backing_1g,
    )
    if sim.tracer is None:  # REPRO_TRACE=0 in the environment
        sim.tracer = DecisionTrace(
            {
                "workload": sim.instance.name,
                "machine": sim.machine.name,
                "policy": sim.policy.name,
                "seed": settings.seed,
            }
        )
    result = sim.run()
    return result, sim.tracer
