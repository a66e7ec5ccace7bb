"""The discrete-event simulation kernel.

The kernel dispatches ``(time, sequence, fn, args)`` entries in
``(time, sequence)`` order.  The sequence number breaks ties in
insertion order, making every run deterministic.  Processes are spawned
with :meth:`Kernel.spawn` and stepped by callbacks the kernel schedules
on their behalf.

Scheduling stores the callable and its arguments separately instead of
wrapping them in a closure: the hot paths (message delivery, process
resumption) schedule millions of events per run, and a per-event
closure allocation is pure overhead.

Dispatch structure -- a two-tier calendar queue
-----------------------------------------------

Earlier revisions kept one global binary heap and paid a ``heappush`` +
``heappop`` (each ``O(log n)`` with tuple comparisons) for *every*
event.  Profiles of the sharded benchmarks showed that most events
share their timestamp with the previous one -- batching windows,
zero-delay resumptions and fixed-latency deliveries all produce wide
same-timestamp frontiers -- so almost all of that heap churn re-sorted
events whose relative order was already fully determined by their
sequence numbers.

The queue is now a calendar of *slots*, one per distinct pending
timestamp:

* ``_buckets`` maps each pending timestamp to a slot-local FIFO list of
  entries.  Scheduling into an existing slot is a dict hit plus a list
  append -- O(1), no comparisons.  Within a slot, FIFO order *is*
  sequence order, because sequence numbers increase monotonically.
* ``_times`` is the overflow tier: a min-heap over the distinct pending
  timestamps (each appears exactly once -- slot existence in
  ``_buckets`` gates the push).  Only the *first* event of a timestamp
  pays a heap operation; the frontier behind it rides the slot for
  free.

The run loop drains one slot at a time by cursor, so events scheduled
*at the current instant while the slot drains* (zero-delay follow-ups)
append to the live slot and fire in the same drain, exactly where the
heap would have placed them.  Dispatch order is byte-identical to the
old heap loop: ``(time, sequence)`` ascending, cancelled timers skipped
without advancing the clock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import KernelStopped, SimulationError
from repro.sim.events import Future
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceLog


class Kernel:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for the kernel's named random streams
        (:attr:`rng`).  Two kernels created with the same seed and fed
        the same process structure produce identical traces.
    """

    __slots__ = (
        "_buckets", "_times", "_sequence", "_now", "_stopped", "rng", "trace",
        "failures", "_fire_timer", "_fire_pooled_timer", "_timer_pool",
        "scheduler", "events_dispatched",
    )

    def __init__(self, seed: int = 0):
        # Calendar queue: slot-local FIFO lists keyed by exact pending
        # timestamp, plus a heap over the distinct timestamps.  A
        # timestamp is in ``_times`` iff it has a slot in ``_buckets``
        # that the run loop has not started draining.
        self._buckets: dict[float, list[tuple[float, int, Callable[..., None], tuple]]] = {}
        self._times: list[float] = []
        self._sequence = 0
        self._now = 0.0
        self._stopped = False
        self.rng = RandomStreams(seed)
        self.trace = TraceLog(self)
        self.failures: list[tuple[Process, BaseException]] = []
        # Bound exactly once: the run loop recognises cancelled timers
        # by identity (``fn is self._fire_timer``), and a fresh bound
        # method per access would never compare identical.
        self._fire_timer = self._resolve_timer
        self._fire_pooled_timer = self._resolve_pooled_timer
        # Free-list for the timeout timers of :meth:`wait_with_timeout`.
        # Those futures never escape the kernel, so the cancelled-timer
        # skip in the run loop -- the last reference holder -- can
        # recycle them (see docs/performance.md for the invariant).
        self._timer_pool: list[Future] = []
        # Events fired by the run loops (skipped cancelled timers are
        # queue maintenance, not events).  The perf benchmarks divide
        # this by wall-clock time for an honest simulator throughput.
        self.events_dispatched = 0
        # Optional controlled-scheduling hook (the ``repro.check``
        # exploration layer).  ``None`` -- the default, and the only
        # value production code ever sees -- takes the fast run loop
        # below.  A scheduler object with a ``pick(kernel, batch)``
        # method instead routes every step through
        # :meth:`_run_controlled`, which offers the scheduler the whole
        # frontier of same-time events to order.
        self.scheduler = None

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def queued(self) -> int:
        """Number of pending (not yet dispatched) entries."""
        return sum(len(bucket) for bucket in self._buckets.values())

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        if self._stopped:
            raise KernelStopped("kernel already stopped")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        self._sequence = sequence = self._sequence + 1
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((time, sequence, callback, args))
        else:
            self._buckets[time] = [(time, sequence, callback, args)]
            heappush(self._times, time)

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time`` (>= now)."""
        self._schedule(time - self._now, callback, *args)

    def call_at_bulk(
        self, entries: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> None:
        """Schedule many ``(time, fn, args)`` entries in one pass.

        Entries share one stopped-check and go straight into the
        calendar without building a closure per event -- the cheap way
        to seed a large simulation (e.g. one timer per transaction in a
        sweep).
        """
        if self._stopped:
            raise KernelStopped("kernel already stopped")
        buckets = self._buckets
        times = self._times
        now = self._now
        sequence = self._sequence
        for time, fn, args in entries:
            if time < now:
                raise SimulationError(f"time {time} is in the past (now={now})")
            sequence += 1
            bucket = buckets.get(time)
            if bucket is not None:
                bucket.append((time, sequence, fn, args))
            else:
                buckets[time] = [(time, sequence, fn, args)]
                heappush(times, time)
        self._sequence = sequence

    def spawn(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Create and start a process from ``generator``."""
        process = Process(self, generator, name=name)
        process._start()
        return process

    def timer(self, delay: float, label: str = "timer") -> Future:
        """Return a future that resolves ``delay`` time units from now.

        The firing callback is a reused bound method with the future as
        its argument -- no per-timer closure -- and resolving is guarded
        so a future already completed elsewhere (e.g. the losing arm of
        a timeout race) is left alone.
        """
        future = Future(label=label)
        self._schedule(delay, self._fire_timer, future)
        return future

    def _pooled_timer(self, delay: float) -> Future:
        """A timeout timer drawn from the kernel's free-list.

        Only for callers that never leak the future to user code (the
        :meth:`wait_with_timeout` race): the run loop recycles these
        futures when it skips their cancelled firing.
        """
        pool = self._timer_pool
        future = pool.pop() if pool else Future(label="timeout")
        self._schedule(delay, self._fire_pooled_timer, future)
        return future

    def _resolve_timer(self, future: Future) -> None:
        if not future._done:
            future.resolve(self._now)

    def _resolve_pooled_timer(self, future: Future) -> None:
        # A pooled timer that actually fires (the timeout won) is NOT
        # recycled: the waiting frame still inspects it afterwards.
        # Only the cancelled-skip path in the run loops recycles.
        if not future._done:
            future.resolve(self._now)

    # -- running ---------------------------------------------------------------

    def run(self, until: Optional[float] = None, raise_failures: bool = True) -> float:
        """Run until the event queue drains or simulated time ``until``.

        Returns the final simulated time.  If ``raise_failures`` is
        true, the first exception that escaped a process nobody joined
        is re-raised after the run, so bugs never pass silently.
        """
        if self.scheduler is not None:
            return self._run_controlled(until, raise_failures)
        buckets = self._buckets
        times = self._times
        fire_timer = self._fire_timer
        fire_pooled = self._fire_pooled_timer
        timer_pool = self._timer_pool
        dispatched = 0
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heappop(times)
                bucket = buckets[time]
                cursor = 0
                try:
                    # Drain the slot by cursor: zero-delay follow-ups
                    # append to the live list and fire in this drain.
                    while cursor < len(bucket):
                        entry = bucket[cursor]
                        cursor += 1
                        fn = entry[2]
                        if fn is fire_timer:
                            if entry[3][0]._done:
                                continue  # cancelled: skip, clock untouched
                        elif fn is fire_pooled:
                            future = entry[3][0]
                            if future._done:
                                # Cancelled pooled timeout: the queue
                                # entry was the last reference -- safe
                                # to recycle (docs/performance.md).
                                future._reset()
                                timer_pool.append(future)
                                continue
                        self._now = time
                        dispatched += 1
                        fn(*entry[3])
                finally:
                    if cursor >= len(bucket):
                        buckets.pop(time, None)
                    else:
                        # An exception escaped mid-slot: keep the
                        # undispatched tail so a subsequent run resumes
                        # exactly where the old heap loop would have.
                        del bucket[:cursor]
                        if buckets.get(time) is bucket:
                            heappush(times, time)
        finally:
            self.events_dispatched += dispatched
        if raise_failures:
            for process, exc in self.failures:
                if not process._observed:
                    raise exc
        return self._now

    def _run_controlled(self, until: Optional[float], raise_failures: bool) -> float:
        """Run loop with an external scheduling strategy in charge.

        At every step the *frontier* -- all queued events sharing the
        earliest timestamp, in scheduling (sequence) order, cancelled
        timers dropped -- is handed to ``scheduler.pick(kernel, batch)``,
        which returns the entry to fire next.  The rest of the frontier
        stays in its slot, so an event the scheduler defers remains
        eligible until actually fired.  Firing an event may grow the
        same-time frontier (zero-delay follow-ups); they join the next
        step's batch, which keeps causality: an event can never run
        before the event that scheduled it.

        Events at *different* timestamps are never reordered -- the
        checker explores interleavings, not timings -- so every
        controlled execution is also a legal execution of the default
        loop under some tie-break.
        """
        buckets = self._buckets
        times = self._times
        fire_timer = self._fire_timer
        fire_pooled = self._fire_pooled_timer
        scheduler = self.scheduler
        while times:
            time = times[0]
            if until is not None and time > until:
                self._now = until
                break
            bucket = buckets.get(time)
            batch = []
            if bucket:
                for entry in bucket:
                    fn = entry[2]
                    if fn is fire_timer or fn is fire_pooled:
                        if entry[3][0]._done:
                            if fn is fire_pooled:
                                entry[3][0]._reset()
                                self._timer_pool.append(entry[3][0])
                            continue  # cancelled timer: never offered
                    batch.append(entry)
            if not batch:
                heappop(times)
                buckets.pop(time, None)
                continue
            chosen = scheduler.pick(self, batch) if len(batch) > 1 else batch[0]
            bucket[:] = [entry for entry in batch if entry is not chosen]
            self._now = time
            self.events_dispatched += 1
            chosen[2](*chosen[3])
        if raise_failures:
            for process, exc in self.failures:
                if not process._observed:
                    raise exc
        return self._now

    def stop(self) -> None:
        """Discard all pending events and refuse further scheduling.

        For tearing down a simulation with self-perpetuating processes
        (periodic checkpointers, serve loops) when their state no longer
        matters.
        """
        # Clear the slot lists in place: a run loop draining one of
        # them holds a direct reference and must observe the discard.
        for bucket in self._buckets.values():
            bucket.clear()
        self._buckets.clear()
        self._times.clear()
        self._stopped = True

    def _on_process_failure(self, process: Process, exc: BaseException) -> None:
        self.failures.append((process, exc))

    # -- helpers usable from inside processes -----------------------------------

    def sleep(self, duration: float) -> Generator[Any, Any, None]:
        """``yield from kernel.sleep(d)`` suspends the caller for ``d``."""
        yield duration

    def wait_with_timeout(
        self, future: Future, timeout: float
    ) -> Generator[Any, Any, tuple[bool, Any]]:
        """Wait for ``future`` or a timeout, whichever comes first.

        Returns ``(True, value)`` if the future resolved in time and
        ``(False, None)`` on timeout.  A failed future re-raises inside
        the caller.
        """
        timer = self._pooled_timer(timeout)
        # Hand-wired two-arm race instead of a generic AnyOf effect:
        # this is the hottest wait in the system (every request/response
        # pair takes it), and the AnyOf path costs an effect object plus
        # one closure per arm.  Resolution order and semantics are
        # identical: first arm wins, later completions are ignored.
        race = Future(label="timeout-race")

        # ``arm`` must not capture ``future``: a reply that never comes
        # keeps ``arm`` in its callbacks, and future -> arm -> future
        # would be a reference cycle only the garbage collector frees.
        def arm(completed: Future) -> None:
            if not race._done:
                if completed._exception is not None:
                    race.fail(completed._exception)
                else:
                    race.resolve(
                        (1 if completed is timer else 0, completed._value)
                    )

        future.add_callback(arm)
        timer.add_callback(arm)
        index, value = yield race
        if index == 0:
            # Cancel the now-stale timeout timer: resolving it here lets
            # the run loop discard the queued firing without advancing
            # the clock, so completed rounds leave no timer debris that
            # could stretch the simulated end time.
            if not timer._done:
                timer.resolve(None)
            return True, value
        return False, None

    def __repr__(self) -> str:
        return f"<Kernel t={self._now} queued={self.queued}>"
