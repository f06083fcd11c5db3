"""One sample grouping per interval, shared by every decider.

Carrefour-LP asks for the interval's sample tables three times (the
LAR estimator, the reactive component, Carrefour), and a policy stack
once per member.  Each interval must sort its batch at most once and
regroup it by backing page at most once per address-space version.
"""

import collections

import pytest

from repro.experiments.configs import make_policy
from repro.experiments.runner import RunSettings, build_simulation
from repro.sim.engine import ActionExecutor


def run_counting(policy, calls, monkeypatch):
    """Run SSCA.20@A under ``policy``; split ``calls`` per interval."""
    run_interval = ActionExecutor.run_interval

    def marking(self, *args):
        calls.append(("interval",))
        return run_interval(self, *args)

    monkeypatch.setattr(ActionExecutor, "run_interval", marking)
    result = build_simulation(
        "SSCA.20", "A", make_policy(policy, seed=0), RunSettings.quick()
    ).run()
    intervals = []
    for call in calls:
        if call[0] == "interval":
            intervals.append([])
        else:
            intervals[-1].append(call)
    return result, intervals


def assert_grouped_once(intervals):
    for steps in intervals:
        kinds = collections.Counter(kind for kind, _ in steps)
        assert kinds["sort"] <= 1, steps
        versions = collections.Counter(v for kind, v in steps if kind == "regroup")
        assert all(n == 1 for n in versions.values()), steps


def test_carrefour_lp_groups_once_per_interval_and_version(
    sample_groupings, monkeypatch
):
    result, intervals = run_counting("carrefour-lp", sample_groupings, monkeypatch)
    assert intervals and result.metrics().pages_split_2m > 0
    assert_grouped_once(intervals)
    # Estimator, reactive component and Carrefour ask for the backing
    # table three times an interval; only a split regroups it.
    assert any(
        len({v for kind, v in steps if kind == "regroup"}) > 1 for steps in intervals
    ), "no interval split a page between its deciders"


@pytest.mark.parametrize(
    "policy", ["carrefour-2m+replication", "carrefour-2m+autonuma"]
)
def test_policy_stack_shares_one_grouping(policy, sample_groupings, monkeypatch):
    _, intervals = run_counting(policy, sample_groupings, monkeypatch)
    assert intervals
    assert_grouped_once(intervals)
    assert all(
        sum(kind == "sort" for kind, _ in steps) == 1 for steps in intervals
    )
