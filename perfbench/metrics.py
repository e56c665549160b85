"""Derives the benchmark's reported numbers from a round's outcome.

* :func:`fingerprint` — the simulated outputs two rounds must agree on;
* :func:`simulated_outcomes` — modelled latency, hit rate and goodput, printed
  and checked but not scored (they describe the modelled GPUs);
* :func:`layer_metrics` — the per-layer metrics of one traced round.  Every
  duration is a self time, so all of them plus ``trace.unattributed_s`` add
  up to the traced wall time.  Counts come from the program's own counters
  (cache and tier statistics, the resilience summary, the recording) where
  the program keeps one, and from the tracer's call counts otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from perfbench.checks import CheckFailed

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: End-to-end metric -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}

#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

#: ``TierStats`` fields reported as ``kvcache.tiers.<field>``.
_TIER_COUNTS = ("promoted_blocks", "demoted_blocks", "dropped_blocks",
                "host_hit_blocks", "cluster_hit_blocks")


class TraceError(CheckFailed):
    """The tracer's bookkeeping does not add up."""


def fingerprint(outcome) -> tuple:
    """The round's simulated outputs, exact to the last bit of every float."""
    rows = []
    for run in outcome.runs:
        records = tuple(sorted(
            (record.request_id, record.instance_name, record.cached_tokens,
             record.arrival_time, record.start_time, record.finish_time,
             record.rejected)
            for record in run.records
        ))
        obs = getattr(run.result, "obs", None)
        spans = obs.events if obs is not None else ()
        rows.append((run.label, run.result.num_events, records, spans))
    return tuple(rows)


def simulated_outcomes(outcome) -> dict:
    """Modelled mean/P99 latency (s), token hit rate and goodput (requests/s)."""
    rows = {}
    for run in outcome.runs:
        if len(outcome.runs) > 1 and run.result.engine_name != "prefillonly":
            continue
        summary = run.result.summary
        rows[run.label] = {
            "mean_latency_s": summary.mean_latency,
            "p99_latency_s": summary.p99_latency,
            "hit_rate": summary.cache_hit_rate,
            "goodput_rps": summary.throughput_rps,
        }
    return rows


def layer_metrics(tracer, outcome, wall_s: float) -> dict:
    """The per-layer metrics of one traced round (plus ``trace.wall_s``)."""
    values = {name: 0 for name in LAYER_UNITS if name != "trace.overhead_s"}
    for measured in (tracer.self_s, tracer.counts):
        for name, value in measured.items():
            if name not in values:
                raise TraceError(f"the tracer measures {name}, which BENCHMARK.json lacks")
            values[name] = value
    attributed = sum(tracer.self_s.values())
    if abs(attributed - tracer.attributed_s) > 1e-6 * max(wall_s, 1.0):
        raise TraceError(
            f"self times sum to {attributed} s but wrapped calls took "
            f"{tracer.attributed_s} s"
        )
    values["trace.unattributed_s"] = wall_s - tracer.attributed_s
    values["trace.wall_s"] = wall_s

    values["simulation.events"] = sum(run.result.num_events for run in outcome.runs)

    selects, scored = tracer.counts["core.scheduler.selects"], tracer.scored
    values["core.scheduler.scored"] = scored
    values["core.scheduler.lookups"] = tracer.select_lookups
    values["core.scheduler.queue_depth_max"] = tracer.queue_depth_max
    values["core.scheduler.queue_depth_mean"] = scored / selects if selects else 0.0
    values["core.scheduler.lookups_per_select"] = (
        tracer.select_lookups / selects if selects else 0.0
    )
    values["core.scheduler.memo_hit_ratio"] = (
        1.0 - tracer.select_lookups / scored if scored else 0.0
    )
    values["kvcache.manager.scratch_blocks"] = tracer.scratch_blocks

    hits = misses = inserted = evicted = 0
    for engine in tracer.engines:
        stats = engine.kv.stats()
        blocks = stats.block_stats
        hits += blocks["block_hits"]
        misses += blocks["block_misses"]
        inserted += blocks["insertions"]
        evicted += blocks["evictions"]
        if stats.tier_stats is not None:
            for field in _TIER_COUNTS:
                values[f"kvcache.tiers.{field}"] += stats.tier_stats[field]
    values["kvcache.prefix_tree.blocks_matched"] = hits
    values["kvcache.prefix_tree.blocks_inserted"] = inserted
    values["kvcache.prefix_tree.blocks_evicted"] = evicted
    values["kvcache.prefix_tree.match_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )

    for run in outcome.runs:
        fleet_summary = getattr(run.result, "fleet", None)
        resilience = fleet_summary.resilience if fleet_summary is not None else None
        if resilience is not None:
            values["resilience.retries"] += resilience.num_retried
            if resilience.policy is not None:
                values["resilience.hedges"] += resilience.policy["num_hedges"]
                values["resilience.hedge_wasted_tokens"] += (
                    resilience.policy["hedge_wasted_tokens"]
                )
        obs = getattr(run.result, "obs", None)
        if obs is not None:
            values["obs.spans"] += len(obs.events)
    series = outcome.details.get("series", {})
    values["analysis.sweep.points"] = sum(
        len(points) for results in series.values() for points in results.values()
    )
    return values


def median_layers(samples: list) -> dict:
    """Median of each metric over traced rounds; counts must agree exactly."""
    merged = {}
    for name in samples[0]:
        column = [sample[name] for sample in samples]
        if LAYER_UNITS.get(name, "s") == "s":
            merged[name] = statistics.median(column)
        elif len(set(column)) > 1:
            raise TraceError(f"{name} differs between traced rounds: {column}")
        else:
            merged[name] = column[0]
    return merged
