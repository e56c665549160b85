"""Timers the benchmark wraps around ``repro``'s entry points.

Two instruments live here, both installed from the benchmark's own files so
that the program under test is never edited:

* :class:`SimClock` wraps the simulation loops (``simulate`` and
  ``simulate_fleet``) on every run.  It marks the first simulated event (the
  end of set-up), the end of the last simulation (the end of the simulation
  phase) and keeps each loop's result for the output checks.  It costs one
  wrapper call per simulation, not per event.
* :class:`LayerTracer` wraps the public entry points of every layer in
  stack-keeping timers for the separate traced run.  A wrapped call's *self
  time* is its duration minus the durations of the wrapped calls beneath it,
  so the self times of all layers plus the unattributed remainder add up to
  the traced wall time exactly.

Functions are swapped wherever a loaded ``repro`` module holds a reference to
them; methods are swapped on the class that defines them, so every instance,
including ones built later, goes through the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


class SetupReached(Exception):
    """Raised at the first simulated event when only set-up is timed."""


#: What an ``after`` hook receives as the result of a call that raised.
RAISED = object()


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _swap_function(original, replacement) -> list:
    """Point every ``repro`` module reference to ``original`` at ``replacement``."""
    swapped = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                swapped.append((module, attr, original))
    return swapped


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class SimClock:
    """Marks the simulation phase of a round and collects the loops' results.

    ``first_entry`` and ``last_exit`` are ``perf_counter`` readings taken
    when the round's first loop starts and its last loop returns; the loops'
    results are kept in ``results``, in call order.  With ``stop_at_setup``
    the first loop call raises :class:`SetupReached` before simulating.
    The clock stays installed for the life of the process.
    """

    def __init__(self, *, stop_at_setup: bool = False) -> None:
        self.stop_at_setup = stop_at_setup
        self.reset()

    def reset(self) -> None:
        self.first_entry: float | None = None
        self.last_exit: float | None = None
        self.results: list = []

    def install(self) -> None:
        from repro.simulation import simulator

        for name in ("simulate", "simulate_fleet"):
            original = getattr(simulator, name)
            _swap_function(original, self._wrap(original))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            if self.first_entry is None:
                self.first_entry = perf_counter()
                if self.stop_at_setup:
                    raise SetupReached()
            result = fn(*args, **kwargs)
            self.last_exit = perf_counter()
            self.results.append(result)
            return result

        return clocked


class LayerTracer:
    """Stack-keeping timers around each layer's entry points.

    Every wrapper is given the per-layer metric that its self time adds to
    and, where there is one, the metric that counts its calls.  After a
    traced round, ``self_s[metric]`` holds the self times and
    ``counts[metric]`` the call counts; ``attributed_s`` is the time spent
    inside any wrapped call, which must equal the sum of all self times.
    A call made beneath another call counted by the same metric (a health
    router's inner router, ``lookup_with_tiers`` calling ``lookup``) is not
    counted again.
    """

    def __init__(self) -> None:
        self._swapped: list = []
        self.reset()

    def reset(self) -> None:
        self._stack = [0.0]
        self._depth: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.engines: list = []
        self.scored = 0
        self.queue_depth_max = 0
        self.select_lookups = 0
        self.scratch_blocks = 0

    @property
    def attributed_s(self) -> float:
        return self._stack[0]

    # ----------------------------------------------------------- wrapping

    def _method(self, cls, name: str, seconds: str, count: str | None = None,
                **hooks) -> None:
        original = cls.__dict__[name]
        if not inspect.isfunction(original):
            raise TypeError(f"{cls.__name__}.{name} is not a plain function")
        setattr(cls, name, self._timer(original, seconds, count, **hooks))
        self._swapped.append((cls, name, original))

    def _timer(self, fn, seconds: str, count: str | None, before=None, after=None):
        # reset() replaces the stack and tables between rounds, so the
        # wrapper reads them through the tracer on every call.
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(args)
            if count is not None:
                if not tracer._depth[count]:
                    tracer.counts[count] += 1
                tracer._depth[count] += 1
            stack = tracer._stack
            stack.append(0.0)
            start = perf_counter()
            result = RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                tracer.self_s[seconds] += elapsed - stack.pop()
                stack[-1] += elapsed
                if count is not None:
                    tracer._depth[count] -= 1
                if after is not None:
                    after(args, result)

        return timed

    def _methods_of_family(self, base, name: str, seconds: str,
                           count: str | None = None, **hooks) -> None:
        for cls in _subclasses(base):
            if name in cls.__dict__ and not getattr(
                    cls.__dict__[name], "__isabstractmethod__", False):
                self._method(cls, name, seconds, count, **hooks)

    def _function(self, original, seconds: str) -> None:
        self._swapped += _swap_function(original, self._timer(original, seconds, None))

    # ------------------------------------------------------------- hooks

    def _select_before(self, args) -> None:
        depth = len(args[1])
        self.scored += depth
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    def _lookup_before(self, args) -> None:
        if (self._depth["core.scheduler.selects"]
                and not self._depth["kvcache.manager.lookup_calls"]):
            self.select_lookups += 1

    def _begin_after(self, args, result) -> None:
        if result is not RAISED:
            self.scratch_blocks += result.num_scratch_blocks

    def _engine_after(self, args, result) -> None:
        if result is not RAISED:
            self.engines.append(args[0])

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every layer's entry points (see the README's layer table)."""
        from repro.cluster.fleet import Fleet
        from repro.core.engine import EngineInstance
        from repro.core.scheduler import Scheduler
        from repro.kvcache.manager import KVCacheManager
        from repro.kvcache.offload import CPUOffloadStore
        from repro.kvcache.prefix_tree import RadixPrefixCache
        from repro.kvcache.tiers.cluster_store import ClusterPrefixStore
        from repro.kvcache.tiers.store import TieredPrefixStore
        from repro.model.latency import LatencyModel
        from repro.obs.recorder import TraceRecorder
        from repro.simulation import simulator
        from repro.simulation.arrival import ArrivalProcess
        from repro.simulation.routing import Router
        from repro.workloads import mixer
        from repro.workloads.credit_verification import CreditVerificationWorkload
        from repro.workloads.post_recommendation import PostRecommendationWorkload
        from repro.workloads.trace import TokenSequence

        self._function(simulator.simulate, "simulation.loop_self_s")
        self._function(simulator.simulate_fleet, "simulation.loop_self_s")
        self._methods_of_family(Router, "route", "simulation.routing.route_s",
                                "simulation.routing.route_calls")

        self._method(Fleet, "__init__", "cluster.build_s")
        self._method(Fleet, "submit", "cluster.submit_self_s", "cluster.submit_calls")
        self._method(Fleet, "advance_to", "cluster.advance_self_s")
        self._method(Fleet, "apply_fault", "cluster.fault_s", "cluster.fault_calls")
        self._method(Fleet, "apply_policy_timers", "cluster.policy_s")

        self._method(EngineInstance, "__init__", "core.engine.build_s",
                     "core.engine.builds", after=self._engine_after)
        self._method(EngineInstance, "advance_to", "core.engine.advance_self_s")
        self._methods_of_family(Scheduler, "select", "core.scheduler.select_self_s",
                                "core.scheduler.selects", before=self._select_before)

        for name in ("lookup", "lookup_from", "lookup_offloaded",
                     "lookup_with_offload", "lookup_with_tiers"):
            self._method(KVCacheManager, name, "kvcache.manager.lookup_s",
                         "kvcache.manager.lookup_calls", before=self._lookup_before)
        self._method(KVCacheManager, "begin_execution", "kvcache.manager.begin_self_s",
                     after=self._begin_after)
        self._method(KVCacheManager, "finish_execution", "kvcache.manager.finish_self_s")

        self._method(RadixPrefixCache, "match", "kvcache.prefix_tree.match_s")
        self._method(RadixPrefixCache, "insert", "kvcache.prefix_tree.insert_self_s")
        self._method(RadixPrefixCache, "evict_blocks", "kvcache.prefix_tree.evict_s")
        self._method(RadixPrefixCache, "pin_prefix", "kvcache.prefix_tree.pin_s")
        self._method(RadixPrefixCache, "unpin", "kvcache.prefix_tree.pin_s")

        self._method(TieredPrefixStore, "fetch", "kvcache.tiers.fetch_s")
        self._method(TieredPrefixStore, "commit", "kvcache.tiers.commit_self_s")
        self._method(TieredPrefixStore, "prefetch", "kvcache.tiers.prefetch_s")
        self._method(CPUOffloadStore, "store", "kvcache.offload.store_s",
                     "kvcache.offload.store_calls")
        self._method(ClusterPrefixStore, "publish", "kvcache.cluster_store.publish_s",
                     "kvcache.cluster_store.publish_calls")

        self._method(LatencyModel, "prefill_time", "model.latency.prefill_s",
                     "model.latency.prefill_calls")

        self._method(PostRecommendationWorkload, "generate", "workloads.generate_s")
        self._method(CreditVerificationWorkload, "generate", "workloads.generate_s")
        self._methods_of_family(ArrivalProcess, "assign", "workloads.generate_s")
        self._function(mixer.mix_tenants, "workloads.generate_s")
        self._method(TokenSequence, "block_hashes", "workloads.block_hashes_s",
                     "workloads.block_hashes_calls")

        self._method(TraceRecorder, "emit", "obs.emit_s")
        self._method(TraceRecorder, "maybe_sample", "obs.sample_s")
        self._method(TraceRecorder, "freeze", "obs.freeze_s")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)
        self._swapped = []
