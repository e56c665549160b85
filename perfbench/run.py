"""Simulator benchmark: times ``repro`` end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload srjf-backlog --seed 1 --seconds 20 --trace 0

One invocation runs one workload.  It repeats whole rounds (generate the
inputs from ``--seed``, build, simulate) for ``--seconds`` and checks every
round's outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics: ``requests_per_s`` (median
  over rounds), ``setup_s`` (median over separate set-up processes) and
  ``peak_rss_mib``;
* ``--trace 1`` alternates untraced and traced rounds and reports the
  per-layer metrics of the traced ones (see ``perfbench/README.md``).

The program is imported from ``src/`` of the checkout this file sits in; the
run fails with exit code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Separate processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Seconds a set-up process may take before the run gives up.
SETUP_TIMEOUT_S = 60

def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and the benchmark modules."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        _fail(f"imported repro from {repro.__file__}, not from {SOURCE}")
    from perfbench import checks, metrics, reference, tracing, workloads

    return checks, metrics, reference, tracing, workloads


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: stop at the first simulated event and print the time."""
    _, _, _, tracing, workloads = _import_program()
    clock = tracing.SimClock(stop_at_setup=True)
    clock.install()
    try:
        workloads.WORKLOADS[workload](seed, clock)
    except tracing.SetupReached:
        print(repr(time.monotonic()))
        return
    _fail("the workload never simulated")


def _time_setup(workload: str, seed: int) -> float:
    """Seconds from process start to the first simulated event, in a fresh process."""
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        _fail(f"set-up process failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - started


class Bench:
    """One workload's rounds, with or without the layer tracer."""

    def __init__(self, workload: str, seed: int) -> None:
        (self.checks, self.metrics, self.reference, self.tracing,
         workloads) = _import_program()
        from repro.perf import memo

        if workload not in workloads.WORKLOADS:
            _fail(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        self.memo = memo
        self.workload = workload
        self.seed = seed
        self.run_workload = workloads.WORKLOADS[workload]
        self.clock = self.tracing.SimClock()
        self.clock.install()
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        #: Seconds of reference loop timed between rounds: half the previous
        #: round's wall time, which left more rounds per run and steadier
        #: medians than a window as long as the round.
        self._window = 0.5
        self._reading = None

    def _reference_reading(self) -> float:
        """Reference pass time on a released heap, which also makes the caches cold.

        Every reading is taken in the same state: the previous round's
        outcome and tracer tables dropped, the program's memo caches cleared
        and the garbage collected.
        """
        self.memo.clear_all_caches()
        self.clock.reset()
        gc.collect()
        return self.reference.reference_seconds(self._window)

    def round(self, inspect, tracer=None):
        """One round: cold caches, generate, build, simulate, then ``inspect``.

        ``inspect(outcome, wall_s, sim_s)`` checks the round's outcome and
        returns what the caller keeps of it; the outcome is released before
        the next reference reading.  ``wall_s`` runs from the start of
        generation to the end of the workload's last program call, ``sim_s``
        from the first simulated event to the end of the last loop.  Returns
        ``(kept, factor)``: ``factor`` scales the round's times to the
        reference speed — ``NOMINAL_S`` over the mean of the reference
        readings taken right before and right after the round.
        """
        if self._reading is None:
            self._reading = self._reference_reading()
        before = self._reading
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            start = time.perf_counter()
            outcome = self.run_workload(self.seed, self.clock)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += outcome.num_requests
        self.failed += outcome.num_failed
        kept = inspect(outcome, wall, self.clock.last_exit - self.clock.first_entry)
        del outcome
        if tracer is not None:
            tracer.reset()
        self._window = wall / 2
        self._reading = self._reference_reading()
        return kept, self.reference.NOMINAL_S / ((before + self._reading) / 2)

    def verify(self, outcome, *, full: bool) -> None:
        """Check that the outputs equal the first round's; ``full`` runs every check."""
        if full:
            self.checks.check_outcome(outcome)
        fingerprint = hashlib.sha256(
            repr(self.metrics.fingerprint(outcome)).encode()).hexdigest()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            raise self.checks.CheckFailed(
                "a round's simulated outputs differ from the first round's"
            )


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    setup, startup = [], []
    for _ in range(SETUP_PROBES):
        setup.append(_time_setup(bench.workload, bench.seed))
        startup.append(bench.reference.startup_seconds())
    rates, peak_rss_mib = [], []

    def inspect(outcome, _wall, sim) -> tuple:
        if not peak_rss_mib:
            peak_rss_mib.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        bench.verify(outcome, full=not rates)
        rate = sum(len(run.records) for run in outcome.runs) / sim
        return rate, bench.metrics.simulated_outcomes(outcome)

    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        (rate, simulated), factor = bench.round(inspect)
        rates.append(rate / factor)
        print(f"round {len(rates)}: {rate:.1f} requests/s at this machine's "
              f"speed, {rate / factor:.1f} at reference speed; simulated "
              f"{json.dumps(simulated)}")
    return {
        "requests_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup) * bench.reference.NOMINAL_STARTUP_S
        / statistics.median(startup),
        "peak_rss_mib": peak_rss_mib[0],
    }


def measure_layers(bench: Bench, seconds: float) -> dict:
    tracer = bench.tracing.LayerTracer()
    units = bench.metrics.LAYER_UNITS
    untraced, traced = [], []

    def check(outcome, wall, _sim) -> float:
        bench.verify(outcome, full=not traced)
        return wall

    def trace(outcome, wall, _sim) -> dict:
        bench.verify(outcome, full=not traced)
        return bench.metrics.layer_metrics(tracer, outcome, wall)

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, factor = bench.round(check)
        untraced.append(wall * factor)
        layers, factor = bench.round(trace, tracer)
        traced.append({name: value * factor if units.get(name, "s") == "s" else value
                       for name, value in layers.items()})
    layers = bench.metrics.median_layers(traced)
    layers["trace.overhead_s"] = (
        statistics.median(sample["trace.wall_s"] for sample in traced)
        - statistics.median(untraced)
    )
    del layers["trace.wall_s"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    bench = Bench(args.workload, args.seed)
    correct = True
    try:
        if args.trace:
            values = measure_layers(bench, args.seconds)
            units = bench.metrics.LAYER_UNITS
        else:
            values = measure_end_to_end(bench, args.seconds)
            units = bench.metrics.END_TO_END_UNITS
    except bench.checks.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        correct, values, units = False, {}, {}
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
