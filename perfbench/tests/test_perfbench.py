"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_are_well_formed():
    spec = _spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for metric in spec[key]:
            assert UNIT.match(metric["unit"]), metric
    for name, unit in {**tracing.metric_units(), **run.END_TO_END}.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)


def test_spec_matches_what_the_benchmark_emits():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracing.metric_units())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def _sim(runtime_s):
    return types.SimpleNamespace(runtime_s=runtime_s, epoch_times_s=[runtime_s],
                                 metrics=lambda: {"runtime_s": runtime_s})


@pytest.mark.parametrize("runtime_s", [math.nan, math.inf, 0.0, -1.0])
def test_invalid_simulated_runtime_counts_as_failure(runtime_s):
    outcome = workloads.Outcome()
    workloads.account_simulations([("a", _sim(1.0)), ("b", _sim(runtime_s))],
                                  outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_claim_fail_is_reported_and_digested_but_not_an_operation():
    claims = [types.SimpleNamespace(claim_id=f"c{i}", passed=i != 3,
                                    measured="x") for i in range(4)]
    outcome = workloads.Outcome()
    workloads.account_claims(claims, outcome)
    assert (outcome.attempted, outcome.failed) == (0, 0)
    assert outcome.notes == ["claims 3/4", "claim c3 FAIL (x)"]
    passing = workloads.Outcome()
    workloads.account_claims(
        [types.SimpleNamespace(claim_id=c.claim_id, passed=True, measured="x")
         for c in claims], passing)
    assert passing.digest != outcome.digest


def test_tenant_not_completed_counts_as_failure():
    outcome = workloads.Outcome()
    tenants = [
        types.SimpleNamespace(tenant_id=i, workload="w", policy="p",
                              status=status, arrival_epoch=0, exit_epoch=1,
                              result=_sim(1.0))
        for i, status in enumerate(("completed", "oom-killed", "truncated"))
    ]
    workloads.account_tenants(tenants, outcome)
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_exception_in_body_counts_as_failure(monkeypatch, tmp_path):
    def prepare(spec):
        def body():
            raise RuntimeError("forced")
        return body

    broken = workloads.Workload("broken", "forced failure", dict,
                                prepare, lambda output, outcome: None)
    monkeypatch.setitem(passrun.WORKLOADS, "broken", broken)
    result = passrun.run_pass({"workload": "broken", "seed": 0,
                               "mode": "plain", "spawn": time.monotonic(),
                               "dump_dir": str(tmp_path)})
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "forced" in result["failures"][0]


def test_digest_is_exact_and_order_independent():
    a, b = workloads.Outcome(), workloads.Outcome()
    workloads.account_simulations([("x", _sim(1.0)), ("y", _sim(2.0))], a)
    workloads.account_simulations([("y", _sim(2.0)), ("x", _sim(1.0))], b)
    assert a.digest == b.digest
    c = workloads.Outcome()
    workloads.account_simulations(
        [("x", _sim(1.0)), ("y", _sim(math.nextafter(2.0, 3.0)))], c)
    assert c.digest != a.digest


def test_self_time_excludes_traced_children(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    child = tracer._timed("child", lambda: None)
    leaf = tracer._leaf("leaf", lambda: None)

    def parent_body():
        child()
        leaf()
        child()

    parent = tracer._timed("parent", parent_body)
    parent()
    parent()
    # Each child span reads the fake clock twice, so lasts 1 tick; a
    # parent span covers its own two reads plus six child reads.
    assert tracer.calls == {"child": 4, "leaf": 2, "parent": 2}
    assert tracer.busy["child"] == 4 and tracer.busy["leaf"] == 2
    assert tracer.busy["parent"] == 2 * 7
    assert tracer.self_time["parent"] == 2 * 7 - 6
    assert tracer.leaf_calls == {"child": 4}


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "validate-quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
