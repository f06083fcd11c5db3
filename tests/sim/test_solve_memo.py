"""The process-wide Che solve memo cannot leak between runs.

:mod:`repro.hardware.caches` keeps one memo of characteristic times for
the whole process, so a run may be answered from solves another run
made.  Its results must still be exactly those of a run in a fresh
process: the memo maps exact input bytes to the solver's float.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.experiments.runner import RunSettings, execute_run
from repro.hardware import caches

TARGET = ("SSCA.20", "A", "carrefour-lp")


def _exact(obj):
    """A hashable rendering of a result with every float as hex."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, _exact(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, dict):
        return tuple(sorted((_exact(k), _exact(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_exact(item) for item in obj)
    return obj


def test_run_after_other_workloads_equals_cold_memo_run(che_solves):
    settings = RunSettings.quick()
    execute_run("SSCA.20", "A", "thp", settings)
    execute_run("CG.D", "B", "carrefour-lp", settings)
    assert caches._SOLVE_MEMO
    after_others = execute_run(*TARGET, settings)

    caches._SOLVE_MEMO.clear()
    del che_solves[:]
    cold = execute_run(*TARGET, settings)
    assert che_solves

    del che_solves[:]
    warm = execute_run(*TARGET, settings)
    # Every solve of the rerun is answered by the memo.
    assert not che_solves

    assert _exact(after_others) == _exact(cold)
    assert _exact(warm) == _exact(cold)
