"""The host's speed, sampled beside the timed work.

The benchmark runs on a few cores of a shared host.  When other tenants
load the same physical cores, every instruction slows for seconds at a
time: the same round of the same seed takes from 4.6 s to 6.2 s, and a
fixed pure-Python loop from 19 ms to 33 ms.  Wall time alone measures
the neighbours as much as the program.

So the benchmark brackets every timed stretch with :func:`sample`, one
pass of a fixed reference loop that uses nothing from the program:
heap-ordered generator coroutines updating a small table, the kinds of
work the simulator's kernel does.  :func:`at_reference` scales a
stretch's wall time by ``REFERENCE_S`` over the mean of the two samples
around it, giving the time the stretch would have taken had the
reference loop run at its uncontended speed.  A change to the program
changes the stretch and not the samples, so it shows in full; a change
in the host's speed moves both, and cancels.
"""

from __future__ import annotations

import gc
import heapq
import time

#: One pass of the reference loop on an uncontended core of the 2-vCPU
#: virtual machine the benchmark was written on.  It only sets the scale
#: of corrected times; compare figures taken on one machine.
REFERENCE_S = 1.3e-3

_TABLE = [[0, index] for index in range(4096)]
_PROCESSES = 120
_STEPS = 6


def _process(index: int):
    for step in range(_STEPS):
        row = _TABLE[(index * 7919 + step * 104729) % len(_TABLE)]
        row[0] += 1
        yield step * 1.5 + index % 7


def _reference_loop() -> None:
    queue = []
    processes = {}
    for index in range(_PROCESSES):
        processes[index] = _process(index)
        queue.append((0.0, index, index))
    heapq.heapify(queue)
    seq = _PROCESSES
    while queue:
        now, _seq, index = heapq.heappop(queue)
        delay = next(processes[index], None)
        if delay is not None:
            heapq.heappush(queue, (now + delay, seq, index))
            seq += 1


def sample() -> float:
    """Seconds one pass of the reference loop takes now.

    The collector is paused for the pass, so that a collection of the
    program's heap is not charged to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time between two samples, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
