"""A fixed pure-Python loop that rescales CPU times to one host speed.

On a shared virtual machine the same operation's CPU time is not a
constant: the host moves the guest between clock levels (up to about
2x apart, held for seconds to minutes), so two runs of the same code an
hour apart can differ by more than any useful regression bound.  The
benchmark therefore times this loop, which does the kind of work the
simulator's hot paths do (a heap of timed tuples, list and dict
updates, float arithmetic, reads scattered over a working set larger
than the core's cache) but none of the program's code, right before and
right after every operation.  An operation's CPU time multiplied by
``REFERENCE_SECONDS / <the loop's local CPU time>`` is what it would
have taken on a host where the loop takes ``REFERENCE_SECONDS``: a
change to the program moves it, a change of clock level does not.

The scattered reads matter.  A loop that stays in the core's cache
slows more than the simulator when the clock drops (1.59x and 1.76x
against the program's 1.42x and 1.70x, measured on short-batch and
long-run operations), so rescaled times would read faster on a slow
host; with reads into a 16 MiB table added, a first version of this
loop slowed 1.46x and 1.65x.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Sequence

#: Steps of one pass; a pass takes 1.5 to 3 milliseconds.
STEPS = 1000

#: CPU seconds of one pass on the host the benchmark was written on, at
#: its faster clock level (2-vCPU "Intel Xeon Processor" guest with a
#: 2 MiB L2 cache per core, CPython 3.11), rounded.
REFERENCE_SECONDS = 1.5e-3

#: The table the loop reads at random: eight times the L2 cache of that
#: host.  It is filled, so that every page of it is resident from the
#: start in this process and in every worker forked from it; its size
#: is subtracted from their peak resident sets.  It holds no byte 255,
#: so ``find(255)`` reads all of it at memory speed.
_TABLE = bytes(range(255)) * ((16 << 20) // 255)
TABLE_BYTES = len(_TABLE)


def _loop(steps: int) -> float:
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    slots = [0.0] * 256
    seen: dict = {}
    table = _TABLE
    size = len(table)
    state = 12345
    total = 0.0
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        when = (state >> 8) * 1e-6
        push(heap, (when, step & 255))
        slot = state & 255
        slots[slot] = slots[slot] * 0.5 + when
        seen[slot] = seen.get(slot, 0) + 1
        spot = (state * 40503) % size
        if len(heap) > 32:
            when, gate = pop(heap)
            total += slots[gate] - when + table[spot] + table[spot * 7 % size]
    return total


def sample() -> float:
    """CPU seconds this thread spends on one pass of the loop.

    The table is read through once first, untimed, so that the pass
    finds it in the shared cache whatever the operation before it did.
    The garbage collector is off meanwhile, so the pass does not pay for
    a collection of the program's objects.
    """
    _TABLE.find(255)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _loop(STEPS)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` of CPU time rescaled to the reference host, from the
    loop's CPU times ``samples`` taken around it."""
    return seconds * REFERENCE_SECONDS / statistics.median(samples)
