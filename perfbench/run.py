"""Benchmark entry point: time cold passes of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload validate-quick --seed 0 \\
        --seconds 20 --trace 0

With ``--trace 0`` the run first starts ``SETUP_PROBES`` interpreters
that only set up, then runs untraced passes back to back (a closed
loop with one client) until ``--seconds`` have passed, and reports the
end-to-end metrics as medians over passes.  With ``--trace 1`` it
cycles untraced, traced and invariant-checking passes and reports the
per-layer metrics (see ``tracing.py``) plus the tracing overhead.

Every pass runs in a fresh interpreter with an empty result cache
under ``.perfbench-work/`` in the checkout and with every ``REPRO_*``
variable removed except the workload's own.  The last line of standard
output is the JSON result; the lines before it give each pass's
figures, failures, result digest and host stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)

from tracing import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only interpreters started per untraced run (``setup_s`` is
#: the median over these and every pass's own set-up).
SETUP_PROBES = 5

#: Hard limit on one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0

#: Pass modes cycled by a traced run.
TRACE_CYCLE = ("plain", "traced", "invariants")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def source_stamp() -> Dict[str, object]:
    """Code identity: the git commit if there is one, and a hash of src/."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def pass_env(workload: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(WORKLOADS[workload].env())
    return env


def run_group(cmd: List[str], env: Dict[str, str],
              timeout: float) -> Tuple[int, str]:
    """Run ``cmd`` in its own process group; on timeout kill the whole
    group (the pass and its pool workers) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stderr


class Runner:
    """Starts passes of one workload and keeps their results."""

    def __init__(self, args: argparse.Namespace, work_dir: str) -> None:
        self.args = args
        self.work_dir = work_dir
        self.env = pass_env(args.workload)
        self.started = time.monotonic()
        self.results: List[dict] = []
        self.setups: List[float] = []
        self.crashed = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def run(self, mode: str) -> None:
        """One pass in a fresh interpreter."""
        pass_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=self.work_dir)
        cache_dir = os.path.join(pass_dir, "cache")
        dump_dir = os.path.join(pass_dir, "trace")
        os.makedirs(cache_dir)
        os.makedirs(dump_dir)
        out = os.path.join(pass_dir, "result.json")
        env = dict(self.env, REPRO_CACHE_DIR=cache_dir)
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "mode": mode, "out": out, "dump_dir": dump_dir,
                "spawn": time.monotonic()}
        try:
            returncode, stderr = run_group(
                [sys.executable, os.path.join(_HERE, "passrun.py"),
                 json.dumps(spec)], env, max(1.0, self.remaining()))
            if returncode != 0:
                raise RuntimeError(f"exit {returncode}: {stderr[-2000:]}")
            with open(out) as fh:
                result = json.load(fh)
        except (OSError, ValueError, RuntimeError,
                subprocess.TimeoutExpired) as exc:
            print(f"pass {mode} crashed: {exc}", file=sys.stderr)
            self.crashed += 1
            result = {"attempted": 1, "failed": 1,
                      "failures": [f"pass crashed: {exc}"]}
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        result["mode"] = mode
        if "setup_s" in result:
            self.setups.append(result["setup_s"])
        if mode != "setup" or "setup_s" not in result:
            self.results.append(result)
            report_pass(self.args.workload, result)


def report_pass(workload: str, r: dict) -> None:
    if "wall_s" in r:
        print(f"pass {workload} {r['mode']}: wall_s={r['wall_s']:.3f}"
              f" setup_s={r['setup_s']:.3f} peak_rss_mb={r['peak_rss_mb']:.1f}"
              f" ops={r['attempted']} failed={r['failed']}"
              f" digest={r['digest'][:16]} stamp={json.dumps(r['stamp'])}")
    for note in r.get("notes", []):
        print(f"  {note}")
    for failure in r.get("failures", []):
        print(f"  FAILED {failure.strip()}")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _mean_layers(results: List[dict]) -> Dict[str, float]:
    layered = [r["layers"] for r in results if "layers" in r]
    if not layered:
        return {}
    return {name: statistics.fmean(l[name] for l in layered)
            for name in layered[0]}


def measure(runner: Runner) -> Dict[str, float]:
    """Untraced run: set-up probes, then passes until time is up."""
    for _ in range(SETUP_PROBES):
        runner.run("setup")
    t0 = time.monotonic()
    while not runner.results or time.monotonic() - t0 < runner.args.seconds:
        runner.run("plain")
        if runner.crashed or runner.remaining() <= 0:
            break
    ok = [r for r in runner.results if "wall_s" in r]
    return {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "setup_s": _median(runner.setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }


def measure_traced(runner: Runner) -> Dict[str, float]:
    """Traced run: cycles of untraced, traced and invariant passes."""
    t0 = time.monotonic()
    while True:
        for mode in TRACE_CYCLE:
            runner.run(mode)
        if (runner.crashed or runner.remaining() <= 0
                or time.monotonic() - t0 >= runner.args.seconds):
            break
    by_mode = {m: [r for r in runner.results if r["mode"] == m and "wall_s" in r]
               for m in TRACE_CYCLE}
    metrics = _mean_layers(by_mode["traced"])
    checked = _mean_layers(by_mode["invariants"])
    for name in metrics:
        if name.startswith("analysis.invariants."):
            metrics[name] = checked.get(name, float("nan"))
    plain = _median([r["wall_s"] for r in by_mode["plain"]])
    traced = _median([r["wall_s"] for r in by_mode["traced"]])
    attempted = sum(r["attempted"] for r in runner.results)
    failed = sum(r["failed"] for r in runner.results)
    metrics.update({
        "bench.untraced_wall_s": plain,
        "bench.traced_wall_s": traced,
        "bench.trace_overhead_pct": 100.0 * (traced / plain - 1.0),
        "bench.error_rate": failed / attempted if attempted else 1.0,
    })
    return metrics


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    print(f"stamp {json.dumps(source_stamp())}")
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        runner = Runner(args, work_dir)
        metrics = measure_traced(runner) if args.trace else measure(runner)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = runner.results
    digests = {r["digest"] for r in results if "digest" in r}
    print(f"digest {args.workload} seed={args.seed}"
          f" sha256={','.join(sorted(digests))}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = metric_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")),
                           "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
