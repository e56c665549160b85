"""The benchmark's four workloads, driven through ``repro``'s public functions.

Each workload is a function ``(seed, clock) -> Outcome`` that generates its
inputs from ``seed``, builds the serving system, simulates, and returns what
the output checks and the metrics need.  The program only ever sees the
generated inputs.  ``clock`` is the :class:`~perfbench.tracing.SimClock`
installed around the simulation loops; it collects every loop's result.

The sizes of ``srjf_backlog``, ``tiered_chaos`` and ``wide_fleet`` are
keyword arguments so the benchmark's tests can run the same code paths on
small inputs; the benchmark itself always uses the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro
from repro.analysis.sweep import paper_qps_points
from repro.simulation.routing import make_router
from repro.simulation.scenario import build_mix, scenario_from_dict


@dataclass
class SimRun:
    """One simulation: the requests generated for it and its result."""

    label: str
    requests: list
    result: object
    block_size: int

    @property
    def records(self) -> list:
        """Terminal records: finished, rejected and shed."""
        return list(self.result.finished) + list(self.result.rejected)


@dataclass
class Outcome:
    """Everything one round of a workload produced."""

    workload: str
    runs: list
    details: dict = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        return sum(len(run.requests) for run in self.runs)

    @property
    def num_failed(self) -> int:
        return sum(len(run.result.rejected) for run in self.runs)


def srjf_backlog(seed: int, clock, *, users: int = 40, posts: int = 12,
                 rate: float = 48.0) -> Outcome:
    """One PrefillOnly serving system (2 instances) under a deep backlog.

    Poisson arrivals at ``rate`` run about six times PrefillOnly's burst
    throughput on this setup (about 7.3 requests/s), so hundreds of requests
    wait and every scheduling decision recalibrates the whole queue.
    """
    setup = repro.get_hardware_setup("h100")
    trace = repro.get_workload("post-recommendation", num_users=users,
                               posts_per_user=posts, seed=seed)
    spec = repro.prefillonly_engine_spec()
    system = repro.ServingSystem.for_setup(
        spec, setup, max_input_length=trace.max_request_tokens
    )
    requests = repro.PoissonArrivalProcess(rate=rate, seed=seed).assign(
        list(trace.requests)
    )
    result = repro.simulate(system, requests)
    run = SimRun("srjf-backlog", list(trace.requests), result, spec.kv_block_size)
    return Outcome("srjf-backlog", [run], {"system": system})


def tiered_chaos_config(seed: int, *, users: int = 10, posts: int = 60,
                        applicants: int = 20, replicas: int = 6) -> dict:
    """The ``tiered-chaos`` scenario block, with every seed derived from ``seed``.

    Light load on purpose: queues stay short, so the tiers, the fault
    handling, the policies and the recorder do the work.  No deadline is set,
    so no request is cancelled; eight attempts make retry exhaustion
    practically impossible at this crash rate.
    """
    horizon = 250.0
    return {
        "name": "tiered-chaos",
        "engine": "prefillonly",
        "setup": "h100",
        "replicas": replicas,
        "router": "prefix-affinity",
        "seed": seed,
        "kv_tiers": {
            "enabled": True,
            "tiers": {
                "host": {"capacity_gib": 2.0, "link": "pcie-gen4"},
                "cluster": {"capacity_gib": 8.0, "link": "nvlink"},
            },
            "promotion": "on-nth-hit",
            "promotion_threshold": 2,
            "demote_on_evict": True,
            "prefetch": True,
        },
        "faults": {
            "enabled": True,
            "warm_restore_blocks": 512,
            "generate": {"mtbf_s": 300.0, "mttr_s": 10.0, "horizon_s": horizon,
                         "seed": seed},
            "events": [
                {"kind": "brownout", "at": 60.0, "duration": 40.0, "multiplier": 4.0},
                {"kind": "outage", "at": 150.0, "duration": 30.0},
            ],
        },
        "resilience": {
            "seed": seed,
            "retry": {"max_attempts": 8, "backoff_base_s": 0.2,
                      "backoff_multiplier": 2.0, "jitter": 0.5},
            "hedge": {"percentile": 95, "min_samples": 20, "min_delay_s": 2.0},
            "breaker": {"window": 16, "failure_ratio": 0.5, "min_samples": 4,
                        "cooldown_s": 8.0, "half_open_probes": 2},
        },
        "observability": {"enabled": True, "spans": True, "metrics": True,
                          "sample_interval_s": 1.0},
        "tenants": [
            {
                "name": "social",
                "workload": "post-recommendation",
                "workload_params": {"num_users": users, "posts_per_user": posts,
                                    "seed": seed},
                "slo_latency_s": 2.0,
                "arrival": "poisson",
                "arrival_params": {"rate": 3.0, "seed": seed},
            },
            {
                "name": "bank",
                "workload": "credit-verification",
                "workload_params": {"num_users": applicants, "seed": seed},
                "slo_latency_s": 8.0,
                "arrival": "poisson",
                "arrival_params": {"rate": 0.05, "seed": seed + 1},
            },
        ],
    }


def tiered_chaos(seed: int, clock, **sizes) -> Outcome:
    """A two-tenant fleet with tiers, faults, policies and recording on."""
    spec = scenario_from_dict(tiered_chaos_config(seed, **sizes))
    requests = build_mix(spec).requests
    scenario = repro.run_scenario(spec, requests=requests, keep_fleet=True)
    engine = repro.get_engine_spec(spec.engine)
    run = SimRun("tiered-chaos", requests, scenario.result, engine.kv_block_size)
    return Outcome("tiered-chaos", [run], {"scenario": scenario})


def wide_fleet(seed: int, clock, *, replicas: int = 1024, posts: int = 2) -> Outcome:
    """One user per replica, run through the decoupled sharded engine.

    Both shard engines run in this process (``shard_workers=1``), so the
    load comes from one process and the traced run sees every call.
    """
    setup = repro.get_hardware_setup("h100")
    trace = repro.get_workload("post-recommendation", num_users=replicas,
                               posts_per_user=posts, seed=seed)
    spec = repro.prefillonly_engine_spec()
    fleet = repro.Fleet.for_setup(
        spec, setup,
        max_input_length=trace.max_request_tokens,
        num_replicas=replicas,
        router=make_router("user-id", replicas),
        name="wide-fleet",
    )
    requests = repro.make_arrival(
        "diurnal", mean_rate=replicas / 4.0, period_seconds=30.0, amplitude=0.6,
        seed=seed,
    ).assign(list(trace.requests))
    result = repro.simulate_fleet(fleet, requests, shards=2, shard_workers=1,
                                  shard_seed=seed)
    run = SimRun("wide-fleet", list(trace.requests), result, spec.kv_block_size)
    return Outcome("wide-fleet", [run])


def engine_sweep(seed: int, clock) -> Outcome:
    """The Figure 6/7 grid on ``h100``: every engine at every paper rate."""
    setup = repro.get_hardware_setup("h100")
    specs = repro.all_engine_specs()
    block_size = {spec.name: spec.kv_block_size for spec in specs}
    datasets = {
        "post-recommendation": repro.get_workload(
            "post-recommendation", num_users=6, posts_per_user=12, seed=seed),
        "credit-verification": repro.get_workload(
            "credit-verification", num_users=10, seed=seed),
    }
    runs, series = [], {}
    for name, trace in datasets.items():
        first = len(clock.results)
        base = repro.base_throughput(repro.prefillonly_engine_spec(), setup, trace,
                                     seed=seed)
        qps_values = paper_qps_points(base)
        series[name] = repro.compare_engines(specs, setup, trace, qps_values,
                                             seed=seed)
        for index, result in enumerate(clock.results[first:]):
            runs.append(SimRun(f"{name}/{result.engine_name}/{index}",
                               list(trace.requests), result,
                               block_size[result.engine_name]))
    return Outcome("engine-sweep", runs, {
        "setup": setup, "specs": specs, "datasets": datasets, "series": series,
    })


WORKLOADS = {
    "srjf-backlog": srjf_backlog,
    "tiered-chaos": tiered_chaos,
    "wide-fleet": wide_fleet,
    "engine-sweep": engine_sweep,
}
