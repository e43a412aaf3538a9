"""The correctness gate and the replay comparison must be able to fail."""

import copy
import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import sim  # noqa: E402
from perfbench.report import Report  # noqa: E402
from perfbench.gate import Phase, check_served, compare_load, digest, load_metrics  # noqa: E402

TINY = dataclasses.replace(sim.DECODE_B1, num_requests=6, input_length=4, output_length=8,
                           audit_prefix=0)


@pytest.fixture(scope="module")
def served():
    requests = sim.make_requests(TINY, seed=3)
    return requests, sim.make_scheduler(TINY).serve(requests)


def gate(requests, result):
    phase = Phase()
    check_served(requests, result, phase)
    return phase


def test_untouched_result_passes(served):
    requests, result = served
    phase = gate(requests, result)
    assert (phase.attempted, phase.failed) == (len(requests), 0)


@pytest.mark.parametrize("tamper", ["drop_token", "reorder", "early", "missing", "oom"])
def test_tampered_result_fails(served, tamper):
    requests, result = served
    bad = copy.deepcopy(result)
    victim = bad.requests[2]
    if tamper == "drop_token":
        victim.token_times.pop()
    elif tamper == "reorder":
        victim.token_times[1], victim.token_times[2] = (victim.token_times[2],
                                                        victim.token_times[1])
    elif tamper == "early":
        victim.token_times[0] = requests[2].arrival_time - 1e-3
    elif tamper == "missing":
        bad.requests.remove(victim)
    else:
        bad.oom, bad.oom_reason = True, "tampered"
    phase = gate(requests, bad)
    assert phase.failed >= 1 and phase.problems
    assert digest(bad) != digest(result)


def test_replay_comparison_flags_a_moved_clock(served):
    _, result = served
    reference = load_metrics(result)
    assert compare_load(reference, load_metrics(copy.deepcopy(result))) == []
    moved = copy.deepcopy(result)
    moved.requests[0].token_times[-1] *= 1.0 + 1e-6
    problems = compare_load(reference, load_metrics(moved))
    assert any("r0.token" in p for p in problems)


def test_replay_audit_runs_replay_and_agrees():
    wl = dataclasses.replace(TINY, num_requests=3, output_length=40, audit_prefix=3)
    report = Report(wl.name)
    sim.replay_audit(wl, sim.make_requests(wl, seed=1), report)
    audit = report.phases["audit"]
    assert (audit.attempted, audit.failed) == (2, 0)
    assert report.info["audit"]["replay_rounds"] > 0
