"""The benchmark's output checks reject corrupted results.

Each test takes a real result from a small run of a workload, corrupts one
thing, and expects the check that guards it to fail.  The runs are small so
the repository's plain ``pytest`` run stays fast.
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench import checks, metrics, workloads
from perfbench.tracing import LayerTracer

SEED = 3


@pytest.fixture(scope="module")
def backlog():
    return workloads.srjf_backlog(SEED, None, users=3, posts=6, rate=24.0)


@pytest.fixture(scope="module")
def fleet():
    return workloads.wide_fleet(SEED, None, replicas=8, posts=3)


@pytest.fixture(scope="module")
def chaos():
    return workloads.tiered_chaos(SEED, None, users=4, posts=6, applicants=2,
                                  replicas=3)


def _copy(outcome):
    """A copy whose record lists can be edited without touching the fixture."""
    runs = []
    for run in outcome.runs:
        result = dataclasses.replace(run.result, finished=list(run.result.finished),
                                     rejected=list(run.result.rejected))
        runs.append(dataclasses.replace(run, result=result))
    return dataclasses.replace(outcome, runs=runs)


def test_real_results_pass_every_check(backlog, fleet, chaos):
    for outcome in (backlog, fleet, chaos):
        checks.check_outcome(outcome)


def test_duplicated_record_is_rejected(backlog):
    outcome = _copy(backlog)
    finished = outcome.runs[0].result.finished
    finished.append(finished[0])
    with pytest.raises(checks.CheckFailed, match="several records"):
        checks.check_outcome(outcome)


def test_cached_tokens_past_the_shared_prefix_are_rejected(backlog):
    outcome = _copy(backlog)
    run = outcome.runs[0]
    record = run.result.finished[-1]
    request = next(r for r in run.requests if r.request_id == record.request_id)
    bound = checks.shared_prefix_tokens(request) // run.block_size * run.block_size
    run.result.finished[-1] = dataclasses.replace(
        record, cached_tokens=bound + run.block_size)
    with pytest.raises(checks.CheckFailed, match="shares only"):
        checks.check_outcome(outcome)


def test_request_moved_to_another_replica_is_rejected(fleet):
    outcome = _copy(fleet)
    finished = outcome.runs[0].result.finished
    names = sorted({record.instance_name for record in finished})
    moved = finished[0]
    other = next(name for name in names if name != moved.instance_name)
    finished[0] = dataclasses.replace(moved, instance_name=other)
    with pytest.raises(checks.CheckFailed, match="finished on both"):
        checks.check_user_affinity(outcome.runs[0])


def test_dropped_span_is_rejected(chaos):
    run = chaos.runs[0]
    obs = run.result.obs
    index = next(i for i, event in enumerate(obs.events) if event[2] == "submit")
    damaged = dataclasses.replace(obs, events=obs.events[:index] + obs.events[index + 1:])
    with pytest.raises(checks.CheckFailed):
        checks.check_phase_sums(run, damaged)


def test_tracing_adds_up_and_does_not_perturb_the_outputs(backlog):
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = workloads.srjf_backlog(SEED, None, users=3, posts=6, rate=24.0)
    finally:
        tracer.uninstall()
    assert metrics.fingerprint(traced) == metrics.fingerprint(backlog)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.attributed_s, abs=1e-9)
    assert tracer.counts["core.scheduler.selects"] > 0
    assert tracer.counts["kvcache.manager.lookup_calls"] >= tracer.select_lookups > 0
