"""The benchmark's workloads and the correctness accounting of one pass.

Each workload is a batch job run by one closed-loop client: a pass is
one cold run of the job in a fresh interpreter.  ``prepare`` does the
imports and builds the settings (the part timed as ``setup_s``) and
returns the body; ``account`` checks what the body produced.

Operations and failures (``error_rate = failed / attempted``):

* every simulation fails on an exception or a non-finite or
  non-positive simulated runtime;
* every scenario tenant fails unless its status is ``completed``;
* an exception escaping the body is one more failed operation.

A paper-claim verdict is a simulated result, not an operation: every
FAIL is printed with its measured values and enters the digest, but is
not counted as failed, because some claims hold only at some seeds
(see README.md).

The digest hashes every simulated result exactly (floats as hex), so
two commits that only change speed must print the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: The colocation scenario: closed-loop arrivals of SSCA.20 and CG.D
#: under Carrefour-LP and THP on machine B, 70% of memory pinned.
COLOCATION = dict(
    arrival="closed-loop",
    machine="B",
    workloads=("SSCA.20", "CG.D"),
    policies=("carrefour-lp", "thp"),
    max_tenants=8,
    target_active=4,
    pressure=0.7,
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``REPRO_*`` variables the pass runs with (all others are scrubbed).
    env: Callable[[], Dict[str, str]]
    prepare: Callable[[dict], Callable[[], object]]
    account: Callable[[object, "Outcome"], None]


class Outcome:
    """Operations attempted and failed in one pass, plus the digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Short human-readable tallies and claim FAILs for the report.
        self.notes: List[str] = []
        self._digest = hashlib.sha256()

    def record(self, label: str, problem: Optional[str]) -> None:
        """Count one operation; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def feed(self, *parts: object) -> None:
        """Add one canonical line to the result digest."""
        self._digest.update(("|".join(_canon(p) for p in parts) + "\n").encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _canon(value: object) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{_canon(k)}:{_canon(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canon({f.name: getattr(value, f.name)
                       for f in dataclasses.fields(value)})
    return str(value)


def runtime_problem(runtime_s: float) -> Optional[str]:
    """Why a simulated runtime is invalid, or None."""
    if not math.isfinite(runtime_s) or runtime_s <= 0:
        return f"simulated runtime {runtime_s!r}"
    return None


def account_simulations(results: Iterable[Tuple[str, object]],
                        outcome: Outcome) -> None:
    """Check and digest ``(label, SimulationResult)`` pairs in label order."""
    results = list(results)
    outcome.notes.append(f"simulations {len(results)}")
    for label, result in sorted(results, key=lambda item: item[0]):
        outcome.record(label, runtime_problem(result.runtime_s))
        outcome.feed(label, result.runtime_s, result.epoch_times_s,
                     result.metrics())


def account_claims(claims: List[object], outcome: Outcome) -> None:
    """Report and digest ``ClaimResult`` objects (not operations)."""
    outcome.notes.append(
        f"claims {sum(c.passed for c in claims)}/{len(claims)}")
    for claim in claims:
        if not claim.passed:
            outcome.notes.append(
                f"claim {claim.claim_id} FAIL ({claim.measured})")
        outcome.feed(claim.claim_id, claim.passed, claim.measured)


def account_tenants(tenants: List[object], outcome: Outcome) -> None:
    """Check and digest scenario ``TenantRecord`` objects."""
    outcome.notes.append(
        f"tenants completed {sum(t.status == 'completed' for t in tenants)}"
        f"/{len(tenants)}")
    for t in tenants:
        label = f"tenant {t.tenant_id} {t.workload}/{t.policy}"
        problem = None if t.status == "completed" else f"status {t.status}"
        if problem is None and t.result is None:
            problem = "no result"
        if problem is None:
            problem = runtime_problem(t.result.runtime_s)
        outcome.record(label, problem)
        outcome.feed(label, t.status, t.arrival_epoch, t.exit_epoch)
        if t.result is not None:
            outcome.feed(label, t.result.runtime_s, t.result.epoch_times_s,
                         t.result.metrics())


def _memoised_runs() -> List[Tuple[str, object]]:
    """Every simulation the pass ran, from the runner's in-process memo."""
    from repro.experiments import runner

    with runner._MEMO_LOCK:
        items = list(runner._CACHE.items())
    return [("/".join(str(k) for k in key[:4]), result)
            for key, result in items]


def _settings(pass_spec: dict):
    """Quick-scale settings; traced passes turn on the result-neutral
    profiler, the invariant pass turns on epoch checking."""
    from repro.experiments.runner import RunSettings
    from repro.sim.config import SimConfig

    config = SimConfig.quick(seed=pass_spec["seed"])
    mode = pass_spec["mode"]
    if mode in ("traced", "invariants"):
        config = dataclasses.replace(config, profile=True)
    if mode == "invariants":
        config = dataclasses.replace(config, check_invariants=True)
    return RunSettings(config=config, seed=pass_spec["seed"])


# ----------------------------------------------------------------------
# validate-quick
# ----------------------------------------------------------------------
def _prepare_validate(pass_spec: dict) -> Callable[[], object]:
    from repro.experiments.validation import validate_claims

    settings = _settings(pass_spec)
    return lambda: validate_claims(settings)


def _account_validate(output: object, outcome: Outcome) -> None:
    account_simulations(_memoised_runs(), outcome)
    if output is not None:
        account_claims(output, outcome)


# ----------------------------------------------------------------------
# baseline-grid
# ----------------------------------------------------------------------
def _prepare_grid(pass_spec: dict) -> Callable[[], object]:
    from repro.experiments.experiments import figure1

    settings = _settings(pass_spec)
    return lambda: figure1(settings)


def _account_grid(output: object, outcome: Outcome) -> None:
    account_simulations(_memoised_runs(), outcome)


# ----------------------------------------------------------------------
# colocation-pressure
# ----------------------------------------------------------------------
def _prepare_colocation(pass_spec: dict) -> Callable[[], object]:
    from repro.experiments.scenario_runner import run_scenario
    from repro.scenarios import ScenarioConfig

    settings = _settings(pass_spec)
    scenario = ScenarioConfig(seed=pass_spec["seed"], **COLOCATION)
    return lambda: run_scenario(scenario, settings.config)


def _account_colocation(output: object, outcome: Outcome) -> None:
    if output is None:
        return
    outcome.feed("host", output.host_epochs, output.pressure_bytes,
                 output.events)
    account_tenants(output.tenants, outcome)


def _grid_env() -> Dict[str, str]:
    # With the default cpu_count - 1 workers a 2-core host resolves to
    # one job and figure1's prefetch is a no-op; one worker per core
    # keeps experiments.parallel on the measured path.
    return {"REPRO_JOBS": str(os.cpu_count() or 1),
            "REPRO_JOBS_BACKEND": "process"}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "validate-quick",
            "repro validate --quick: 34 serial simulations and the 14-claim"
            " scoreboard, the command people run; policy daemon and TLB model"
            " dominate",
            dict, _prepare_validate, _account_validate),
        Workload(
            "baseline-grid",
            "figure1 at quick scale: 76 linux-4k/thp runs over a process pool;"
            " no placement policy, so it bypasses the policy daemon",
            _grid_env, _prepare_grid, _account_grid),
        Workload(
            "colocation-pressure",
            "8 closed-loop tenants on a 70%-pinned host: allocation, collapse"
            " and migration on a fragmented allocator; bypasses the TLB model",
            dict, _prepare_colocation, _account_colocation),
    )
}
