"""Cache-key completeness regression, driven by R001 as a library.

PR 1 shipped a memo key that silently dropped four ``SimConfig``
fields; the R001 rule exists so that bug class cannot recur.  These
tests (a) run R001 over the real tree so any new config dataclass with
an incomplete ``cache_key``/``fingerprint`` fails CI, (b) prove the
rule would actually catch a regression by injecting one, and (c) pin
the runtime semantics of ``_CACHE_KEY_EXCLUDE``.
"""

from __future__ import annotations

import dataclasses
import pathlib

import repro
from repro.analysis.linter import format_findings, lint_paths, lint_source
from repro.analysis.rules import rules_by_id
from repro.experiments.cache import normalized_config, run_fingerprint
from repro.experiments.runner import RunSettings
from repro.sim.config import SimConfig

PACKAGE = pathlib.Path(repro.__file__).parent
RUNNER_SRC = PACKAGE / "experiments" / "runner.py"


def test_every_cache_key_method_covers_all_fields():
    findings = lint_paths([PACKAGE], rules=rules_by_id("R001"))
    assert findings == [], format_findings(findings)


def test_r001_catches_an_injected_field():
    """Add a field to RunSettings without touching cache_key: R001 trips.

    This mutation test keeps the rule and the real source honest with
    each other — if R001's dataclass parsing drifted away from how
    runner.py is written, the clean-tree test above could pass
    vacuously; this one would fail.
    """
    source = RUNNER_SRC.read_text(encoding="utf-8")
    anchor = "    seed: Optional[int] = None\n"
    assert anchor in source, "RunSettings layout changed; update this test"
    mutated = source.replace(anchor, anchor + "    extra_knob: int = 0\n", 1)
    findings = lint_source(mutated, str(RUNNER_SRC), rules=rules_by_id("R001"))
    assert findings, "R001 missed a field added to RunSettings"
    assert any("extra_knob" in f.message for f in findings)


def test_exclude_list_names_real_fields():
    field_names = {f.name for f in dataclasses.fields(SimConfig)}
    assert SimConfig._CACHE_KEY_EXCLUDE <= field_names


def test_excluded_fields_do_not_split_the_memo_key():
    cfg = SimConfig.quick(seed=0)
    checked = dataclasses.replace(cfg, check_invariants=True)
    base = RunSettings(config=cfg, seed=0)
    with_checks = RunSettings(config=checked, seed=0)
    key_a = base.cache_key("CG.D", "machine-B", "thp", False)
    key_b = with_checks.cache_key("CG.D", "machine-B", "thp", False)
    assert key_a == key_b
    assert normalized_config(checked) == normalized_config(cfg)


def test_excluded_fields_do_not_split_the_fingerprint():
    cfg = SimConfig.quick(seed=0)
    checked = dataclasses.replace(cfg, check_invariants=True)
    args = ("CG.D", "machine-B", "thp", False)
    assert run_fingerprint(*args, cfg, 0) == run_fingerprint(*args, checked, 0)


def test_result_affecting_fields_still_split_both_keys():
    cfg = SimConfig.quick(seed=0)
    other = dataclasses.replace(cfg, max_epochs=cfg.max_epochs + 1)
    args = ("CG.D", "machine-B", "thp", False)
    assert run_fingerprint(*args, cfg, 0) != run_fingerprint(*args, other, 0)
    key_a = RunSettings(config=cfg, seed=0).cache_key(*args)
    key_b = RunSettings(config=other, seed=0).cache_key(*args)
    assert key_a != key_b
