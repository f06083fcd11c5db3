"""One pass of one workload, in a fresh interpreter.

Usage (``run.py`` starts it; the argument is a JSON object)::

    python3 perfbench/passrun.py '{"workload": "validate-quick", "seed": 0,
        "mode": "plain", "spawn": <time.monotonic() at spawn>,
        "out": "<result file>", "dump_dir": "<dir for worker traces>"}'

``mode`` is ``setup`` (stop after set-up), ``plain`` (untraced),
``traced`` (per-layer tracing and the engine profiler on) or
``invariants`` (traced, with epoch invariant checking on).  The result
is written as JSON to ``out``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def calibration_s() -> float:
    """Median time of a fixed interpreter-plus-numpy kernel.

    Recorded with every pass so that a window in which the host runs
    slow shows up next to the timings it distorts.
    """
    import numpy as np

    data = np.random.default_rng(12345).random(400_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(data)
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_pass(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    tracer = None
    body = workload.prepare(spec)
    if mode in ("traced", "invariants"):
        tracer = Tracer(spec["dump_dir"])
        tracer.install()
    setup_s = time.monotonic() - spec["spawn"]
    out = {"setup_s": setup_s}
    if mode == "setup":
        return out

    outcome = Outcome()
    output = None
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        output = body()
    except Exception:
        outcome.record("body", traceback.format_exc(limit=8))
    wall_s = time.perf_counter() - t0
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    workload.account(output, outcome)

    import numpy
    from repro.experiments.parallel import backend_choice, resolve_jobs
    from repro.workloads.streambank import stream_prefetch_enabled

    backend, reason = backend_choice()
    jobs = resolve_jobs()
    out.update(
        wall_s=wall_s,
        peak_rss_mb=_rss_mb(resource.RUSAGE_SELF)
        + _rss_mb(resource.RUSAGE_CHILDREN),
        attempted=outcome.attempted,
        failed=outcome.failed,
        failures=outcome.failures,
        notes=outcome.notes,
        digest=outcome.digest,
        stamp={
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": backend,
            "backend_reason": reason,
            "jobs": jobs,
            "prefetch": stream_prefetch_enabled(),
            "calibration_s": calibration_s(),
        },
    )
    if tracer is not None:
        outcome.notes += [f"trace target missing: {m}" for m in tracer.missing]
        tracer.merge_worker_dumps()
        out["layers"] = tracer.metrics(
            jobs, _cpu_s(children1) - _cpu_s(children0))
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = run_pass(spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
