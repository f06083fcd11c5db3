"""Benchmarks the engine hot path itself and emits ``BENCH_engine.json``.

Runs the same figure-shaped grid as ``test_bench_runner`` (CG.D / UA.B
/ SSCA.20 x machines A/B x linux-4k/thp), but serially and with the
per-phase profiler on, so the numbers answer questions the runner
bench cannot: how long does *one* uncached simulation take, and where
inside ``Simulation._run_epoch`` does that time go.

One cold pass over the grid: stream banks start empty, so every
(workload, machine) pair generates its streams and fused aggregation
columns from scratch, and the policy pair of each cell shares them.

The PR 2 baseline for this grid (serial, cold, scale 0.25) was
11.973 s; ``speedup_vs_pr2_baseline`` tracks the hot-path trajectory
against it.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.sim.profile import PHASES, run_profiled
from repro.workloads.streambank import clear_stream_banks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: Cold serial wall seconds for this grid recorded by PR 2's
#: ``BENCH_runner.json`` (``serial_wall_s``), the comparison point for
#: the hot-path overhaul.
PR2_BASELINE_WALL_S = 11.973

#: Perf-smoke budget: profiling-side aggregation (``tracker``) plus
#: stream-bank fill (``stream_bank``) as a share of the cold pass.
#: Catches a regression in the fused fill path itself; most of the
#: stream_bank lap is golden-pinned per-thread generator draws, which
#: no aggregation work can shrink, hence the loose bound.
COLD_TRACKER_BANK_PCT_BUDGET = 85.0

BENCH_GRID = [
    (wl, machine, policy)
    for wl in ("CG.D", "UA.B", "SSCA.20")
    for machine in ("A", "B")
    for policy in ("linux-4k", "thp")
]


def _sweep(settings):
    """One serial pass over the grid; returns (wall, phase sums, runs)."""
    runs = []
    phase_totals = {phase: 0.0 for phase in PHASES}
    total_wall = 0.0
    for workload, machine, policy in BENCH_GRID:
        start = time.perf_counter()
        result, timer = run_profiled(workload, machine, policy, settings)
        wall = time.perf_counter() - start
        total_wall += wall

        # The profiler brackets every epoch, so its phases must account
        # for (almost all of) the run; the remainder is setup/teardown
        # outside the epoch loop.
        assert timer.n_epochs == len(result.epoch_times_s)
        assert 0.0 < timer.total_s <= wall
        for phase, seconds in timer.phase_s.items():
            phase_totals[phase] += seconds
        runs.append(
            {
                "run": f"{workload}@{machine}/{policy}",
                "wall_s": round(wall, 3),
                "epochs": timer.n_epochs,
                "phases_s": {
                    phase: round(seconds, 4)
                    for phase, seconds in timer.phase_s.items()
                },
            }
        )
    return total_wall, phase_totals, runs


def _tracker_bank_pct(phase_totals) -> float:
    total = sum(phase_totals.values())
    if not total:
        return 0.0
    combined = phase_totals["tracker"] + phase_totals["stream_bank"]
    return round(100.0 * combined / total, 1)


def test_bench_engine(settings):
    clear_stream_banks()
    cold_wall, cold_phases, cold_runs = _sweep(settings)
    clear_stream_banks()

    cold_total = sum(cold_phases.values())
    payload = {
        "grid": [f"{wl}@{m}/{p}" for wl, m, p in BENCH_GRID],
        "n_runs": len(BENCH_GRID),
        "scale": settings.config.scale,
        "cold_serial_wall_s": round(cold_wall, 3),
        "pr2_baseline_wall_s": PR2_BASELINE_WALL_S,
        "speedup_vs_pr2_baseline": round(PR2_BASELINE_WALL_S / cold_wall, 2),
        "phases_s": {
            phase: round(seconds, 3) for phase, seconds in cold_phases.items()
        },
        "phases_pct": {
            phase: round(100.0 * seconds / cold_total, 1)
            for phase, seconds in cold_phases.items()
        },
        "tracker_bank_pct_cold": _tracker_bank_pct(cold_phases),
        "runs": cold_runs,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload, indent=2))

    # Perf-smoke gates (CI sets REPRO_BENCH_ASSERT=1).
    if os.environ.get("REPRO_BENCH_ASSERT", "").strip() == "1":
        cold_pct = payload["tracker_bank_pct_cold"]
        assert cold_pct <= COLD_TRACKER_BANK_PCT_BUDGET, (
            f"tracker + stream_bank is {cold_pct}% of the cold pass"
            f" (budget: {COLD_TRACKER_BANK_PCT_BUDGET}%); the fused fill"
            " pipeline regressed"
        )
