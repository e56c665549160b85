"""Output checks, run on every round outside the timed phase.

Every check compares the simulator's output with a property of the inputs or
with a computation made apart from the prefix cache: the request ids the
generator produced, the shared-prefix lengths it recorded, the engines' MIL
table.  None compares against a stored copy of an earlier run's output.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro import CreditVerificationWorkload, get_model
from repro.analysis.mil import mil_table
from repro.obs.analysis import decompose_requests
from repro.simulation.invariants import InvariantViolation, check_single_kv_residency

#: PrefillOnly's mean latency at the top offered rate may exceed the best
#: engine's by at most this factor (the bound ``benchmarks/test_fig6`` pins).
TOP_RATE_TOLERANCE = 1.05

#: Float slack for sums of simulated seconds.
_TIME_EPSILON = 1e-9


class CheckFailed(Exception):
    """An output check found a wrong result."""


def shared_prefix_tokens(request) -> int:
    """The request's prefix shared with other requests, as its generator built it.

    Post-recommendation requests record it (system prompt plus user
    profile); credit-verification requests share only the generator's
    system prompt.
    """
    metadata = request.metadata
    if "shared_prefix_tokens" in metadata:
        return metadata["shared_prefix_tokens"]
    if "history_tokens" in metadata:
        return CreditVerificationWorkload.system_prompt_tokens
    return 0


# ------------------------------------------------------------ every workload


def check_terminal_records(run) -> None:
    """Every generated request id ends in exactly one terminal record."""
    counts = Counter(record.request_id for record in run.records)
    repeated = sorted(rid for rid, count in counts.items() if count > 1)
    if repeated:
        raise CheckFailed(f"{run.label}: requests {repeated[:5]} have several records")
    generated = {request.request_id for request in run.requests}
    missing = sorted(generated - counts.keys())
    if missing:
        raise CheckFailed(f"{run.label}: requests {missing[:5]} have no record")
    phantom = sorted(counts.keys() - generated)
    if phantom:
        raise CheckFailed(f"{run.label}: records {phantom[:5]} were never generated")


def check_record_times(run) -> None:
    """Arrival <= start <= finish on every record."""
    for record in run.records:
        if not record.arrival_time <= record.start_time <= record.finish_time:
            raise CheckFailed(
                f"{run.label}: request {record.request_id} has arrival "
                f"{record.arrival_time}, start {record.start_time}, "
                f"finish {record.finish_time}"
            )


def check_cached_tokens(run) -> None:
    """Cached tokens are whole blocks, at most the whole-block shared prefix."""
    size = run.block_size
    by_id = {request.request_id: request for request in run.requests}
    for record in run.records:
        cached = record.cached_tokens
        if cached % size:
            raise CheckFailed(
                f"{run.label}: request {record.request_id} caches {cached} tokens, "
                f"not a whole number of {size}-token blocks"
            )
        bound = shared_prefix_tokens(by_id[record.request_id]) // size * size
        if cached > bound:
            raise CheckFailed(
                f"{run.label}: request {record.request_id} caches {cached} tokens "
                f"but shares only {bound} whole-block tokens with other requests"
            )


def check_every_run(outcome) -> None:
    for run in outcome.runs:
        check_terminal_records(run)
        check_record_times(run)
        check_cached_tokens(run)


# --------------------------------------------------------------- srjf-backlog


def check_no_overlap(run) -> None:
    """Execution intervals never overlap on one single-stage instance."""
    by_instance = defaultdict(list)
    for record in run.result.finished:
        by_instance[record.instance_name].append(record)
    for name, records in by_instance.items():
        records.sort(key=lambda record: (record.start_time, record.finish_time))
        for earlier, later in zip(records, records[1:]):
            if later.start_time < earlier.finish_time - _TIME_EPSILON:
                raise CheckFailed(
                    f"{run.label}: on {name}, request {later.request_id} starts at "
                    f"{later.start_time} before request {earlier.request_id} "
                    f"finishes at {earlier.finish_time}"
                )


def check_first_requests_uncached(run) -> None:
    """Each user's first request to start finds nothing of theirs cached."""
    first = {}
    for record in run.result.finished:
        seen = first.get(record.user_id)
        if seen is None or (record.start_time, record.request_id) < (
                seen.start_time, seen.request_id):
            first[record.user_id] = record
    for user, record in first.items():
        if record.cached_tokens:
            raise CheckFailed(
                f"{run.label}: user {user}'s first request {record.request_id} "
                f"reports {record.cached_tokens} cached tokens"
            )


# ----------------------------------------------------------------- wide-fleet


def check_user_affinity(run) -> None:
    """All of a user's requests finish on one replica."""
    replica = {}
    for record in run.result.finished:
        seen = replica.setdefault(record.user_id, record.instance_name)
        if seen != record.instance_name:
            raise CheckFailed(
                f"{run.label}: user {record.user_id} finished on both {seen} and "
                f"{record.instance_name}"
            )


def check_exact_prefix_hits(run) -> None:
    """Every request after a user's first hits exactly its whole-block prefix."""
    size = run.block_size
    by_id = {request.request_id: request for request in run.requests}
    by_user = defaultdict(list)
    for record in run.result.finished:
        by_user[record.user_id].append(record)
    for records in by_user.values():
        records.sort(key=lambda record: (record.start_time, record.request_id))
        for record in records[1:]:
            expected = shared_prefix_tokens(by_id[record.request_id]) // size * size
            if record.cached_tokens != expected:
                raise CheckFailed(
                    f"{run.label}: request {record.request_id} hits "
                    f"{record.cached_tokens} cached tokens, expected {expected}"
                )


# --------------------------------------------------------------- tiered-chaos


def check_kv_residency(fleet) -> None:
    """Per replica, a content hash lives in at most one tier."""
    try:
        check_single_kv_residency(fleet)
    except InvariantViolation as exc:
        raise CheckFailed(str(exc)) from exc


def check_phase_sums(run, obs) -> None:
    """The recorded spans decompose each finished request's latency exactly."""
    breakdowns = {item.request_id: item for item in decompose_requests(obs).requests}
    finished = {record.request_id: record for record in run.result.finished}
    if breakdowns.keys() != finished.keys():
        missing = sorted(finished.keys() - breakdowns.keys())
        extra = sorted(breakdowns.keys() - finished.keys())
        raise CheckFailed(
            f"{run.label}: spans decompose {len(breakdowns)} requests, "
            f"{len(finished)} finished (missing {missing[:5]}, extra {extra[:5]})"
        )
    for request_id, record in finished.items():
        total = math.fsum(breakdowns[request_id].phases.values())
        if abs(total - record.latency) > _TIME_EPSILON * max(1.0, record.latency):
            raise CheckFailed(
                f"{run.label}: request {request_id}'s phases sum to {total} s, "
                f"its latency is {record.latency} s"
            )


# --------------------------------------------------------------- engine-sweep

def engine_mils(specs, setup) -> dict:
    """Engine name -> MIL on ``setup`` from the Table 2 computation."""
    rows = mil_table(list(specs), [setup], get_model)
    return {row["engine"]: row["max_input_length"] for row in rows}


def check_feasible_engines(series, datasets, mils) -> None:
    """Empty series are exactly the engines whose MIL is below the longest request."""
    for name, trace in datasets.items():
        longest = trace.max_request_tokens
        empty = {engine for engine, points in series[name].items() if not points}
        expected = {engine for engine, mil in mils.items() if mil < longest}
        if empty != expected:
            raise CheckFailed(
                f"{name}: engines {sorted(empty)} have empty series, but "
                f"{sorted(expected)} have a MIL below {longest} tokens"
            )


def check_prefillonly_top_rate(series) -> None:
    """PrefillOnly's mean latency at the top rate is within 5% of the best."""
    for name, results in series.items():
        top = {engine: points[-1].mean_latency
               for engine, points in results.items() if points}
        best = min(top.values())
        if top.get("prefillonly", math.inf) > best * TOP_RATE_TOLERANCE:
            raise CheckFailed(
                f"{name}: PrefillOnly's top-rate mean latency is not within "
                f"{TOP_RATE_TOLERANCE}x of the best engine: {top}"
            )


# -------------------------------------------------------------------- entry


def check_outcome(outcome) -> None:
    """Run every check that applies to ``outcome``'s workload."""
    check_every_run(outcome)
    details = outcome.details
    if outcome.workload == "srjf-backlog":
        run, = outcome.runs
        if any(instance.spec.pipeline_parallel != 1
               for instance in details["system"].instances):
            raise CheckFailed("srjf-backlog must run single-stage instances")
        check_no_overlap(run)
        check_first_requests_uncached(run)
    elif outcome.workload == "wide-fleet":
        run, = outcome.runs
        check_user_affinity(run)
        check_exact_prefix_hits(run)
    elif outcome.workload == "tiered-chaos":
        run, = outcome.runs
        scenario = details["scenario"]
        check_kv_residency(scenario.fleet)
        check_phase_sums(run, scenario.result.obs)
    elif outcome.workload == "engine-sweep":
        mils = engine_mils(details["specs"], details["setup"])
        check_feasible_engines(details["series"], details["datasets"], mils)
        check_prefillonly_top_rate(details["series"])
