"""Fixed workloads that measure how fast the machine runs now.

Shared machines change speed by tens of percent over minutes as their
neighbours load and unload them.  The benchmark times a reference next to
every measurement and scales its wall times to a fixed reference speed, so
that a change of machine speed cancels while a change of the program does
not: neither reference runs any of ``repro``.

* :func:`reference_seconds` times a pure-Python loop that imitates the
  simulator's mix of work: heap pushes and pops, dict reads and writes keyed
  by tuples and ints, attribute access on small objects, short method calls
  and list appends.  It scales the simulation rounds.
* :func:`startup_seconds` times a fresh interpreter that imports the
  modules from outside the program that ``import repro`` loads.  It scales
  set-up time, which is mostly process start and module loading: on the
  machine the bounds were set on, set-up times divided by it spread half as
  much as set-up times divided by the loop, which spread more than raw ones.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
from time import monotonic, perf_counter

#: Seconds one pass of the loop takes on the machine the bounds were set on
#: when it ran fast; dividing by it keeps scaled numbers in the units of a
#: real run.
NOMINAL_S = 0.03

#: The start-up reference: the third-party and standard-library modules that
#: ``repro``'s modules import.
STARTUP_IMPORTS = ("import argparse, concurrent.futures, dataclasses, heapq, json, "
                   "logging, pathlib, platform, resource, numpy")

#: Seconds the start-up reference takes on the machine the bounds were set
#: on when it ran fast.
NOMINAL_STARTUP_S = 0.25


class _Node:
    __slots__ = ("key", "parent", "children", "hits")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.children = {}
        self.hits = 0

    def child(self, key):
        node = self.children.get(key)
        if node is None:
            node = _Node(key, self)
            self.children[key] = node
        node.hits += 1
        return node


class _Record:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link):
        self.key = key
        self.value = value
        self.link = link


def _work(steps: int = 4_000, table_size: int = 15_000) -> int:
    # Part one: a small radix tree, a bounded heap and a tuple-keyed dict,
    # all hot in the CPU caches.
    root = _Node(0, None)
    heap: list = []
    seen: dict = {}
    log: list = []
    total = 0
    for step in range(steps):
        node = root
        for depth in range(8):
            node = node.child((step * 7 + depth) % 97)
        key = (step % 251, step % 13)
        seen[key] = seen.get(key, 0) + node.hits
        heapq.heappush(heap, (step * 0.37 % 11.0, step, node))
        if len(heap) > 64:
            _time, _step, popped = heapq.heappop(heap)
            total += popped.hits
        log.append(total)
    # Part two: a table of fresh objects too large for the caches, read in
    # a scattered order, like the simulator's stores and trees.
    table: dict = {}
    previous = None
    for index in range(table_size):
        previous = _Record((index, index & 1023), index, previous)
        table[index * 2654435761 % (1 << 32)] = previous
    keys = list(table)
    state = 12345
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        record = table[keys[state % table_size]]
        total += record.value + record.key[1]
    return total + len(seen) + len(log)


def reference_seconds(window: float) -> float:
    """Mean wall time of one pass of the fixed loop, over at least ``window`` seconds.

    A window as long as the measurement it scales averages the machine's
    speed over a comparable stretch of time.  The cyclic garbage collector is
    held off while the loop runs, so that the reading does not depend on how
    many objects the rest of the process keeps alive; the loop's garbage is
    collected afterwards, outside the timed window.
    """
    passes = 0
    gc.disable()
    try:
        start = perf_counter()
        while True:
            _work()
            passes += 1
            elapsed = perf_counter() - start
            if elapsed >= window:
                return elapsed / passes
    finally:
        gc.enable()
        gc.collect()


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that runs :data:`STARTUP_IMPORTS`."""
    start = monotonic()
    subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], check=True,
                   capture_output=True, timeout=60)
    return monotonic() - start
