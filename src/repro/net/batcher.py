"""One size-or-deadline batcher for both batching layers.

Two layers buffer work per key and ship a key's whole queue at once:

* :class:`~repro.net.network.Network` keys its outboxes by
  ``(sender, dest)``; a flush is one envelope on the link;
* :class:`~repro.core.gtm.DecisionPipeline` keys decision groups by
  site; a flush is one ``decide_group`` round-trip whose records share
  one forced write.

The mechanism is the same in both and lives here once:

* a key's first item schedules a deadline flush one window later;
* with ``max_size > 0`` a queue reaching ``max_size`` items flushes at
  once (the size trigger);
* a per-key generation counter, bumped whenever a queue is flushed or
  dropped, turns a deadline scheduled for an earlier queue into a no-op;
* ``policy="adaptive"`` replaces the fixed window by an
  :class:`AdaptiveWindow` fed with each flush's total queueing wait;
* :meth:`Batcher.drop` discards queued items whose owner crashed.

The layers keep what differs: what a flush sends (the ``flush``
callback), which keys a crash kills, and -- for the pipeline -- a
``live`` predicate that voids a deadline firing after its owner died.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

__all__ = ["AdaptiveWindow", "Batcher"]

POLICIES = ("static", "adaptive")

#: AdaptiveWindow tuning.  The window stays in ``[base * FLOOR, base]``;
#: a flush whose total wait exceeds ``PRESSURE * current`` shrinks it by
#: ``SHRINK``, and ``PATIENCE`` consecutive flushes waiting at most
#: ``RELIEF * current`` widen it by ``GROW``.
FLOOR = 0.125
SHRINK = 0.5
GROW = 2.0
PRESSURE = 1.5
RELIEF = 1.0
PATIENCE = 6


class AdaptiveWindow:
    """Load-sensed flush window (group-commit style), bounded to ``[floor, base]``.

    The signal is the **total** wait a flushed batch accumulated (sum
    over members of ``flush_time - enqueue_time``):

    * under a burst, many items sit behind the deadline, total wait
      rises well past the window, and the window *shrinks* so
      latecomers stop paying for a quiet-era deadline;
    * at quiescence a lone item waits exactly one window -- with
      ``RELIEF = 1`` that counts as relief -- and a streak of
      ``PATIENCE`` such flushes *re-widens* the window toward ``base``.
      One stray singleton flush amid a burst does not.

    Pure arithmetic on simulated-time delays -- no wall clock, no
    randomness -- so runs stay byte-replayable.
    """

    def __init__(self, base: float):
        if base <= 0:
            raise ValueError("adaptive window needs base > 0")
        self.base = base
        self.floor = base * FLOOR
        self._relief_streak = 0
        #: The window the next scheduled flush should use.
        self.current = base
        #: Telemetry: multiplicative steps taken in each direction.
        self.shrinks = 0
        self.widens = 0
        #: Flushes observed (size- and deadline-triggered alike).
        self.observations = 0

    def observe(self, total_wait: float) -> None:
        """Feed one flush's total queueing wait; adjust the window."""
        self.observations += 1
        if total_wait > PRESSURE * self.current:
            self._relief_streak = 0
            shrunk = max(self.floor, self.current * SHRINK)
            if shrunk < self.current:
                self.current = shrunk
                self.shrinks += 1
        elif total_wait <= RELIEF * self.current:
            self._relief_streak += 1
            if self._relief_streak < PATIENCE:
                return
            widened = min(self.base, self.current * GROW)
            if widened > self.current:
                self.current = widened
                self.widens += 1
        else:
            self._relief_streak = 0


class Batcher:
    """Keyed queues flushed on size or deadline.

    ``flush(key, items)`` receives each queue as it leaves.  ``live``,
    when given, is asked before a deadline flush: a false answer drops
    the queue instead (the timer outlived the queue's owner).
    """

    @staticmethod
    def validate(what: str, window: float, policy: str, max_size: int) -> None:
        """Reject a batching configuration where it enters, even unused."""
        if window < 0:
            raise ValueError(f"negative {what} window {window}")
        if policy not in POLICIES:
            raise ValueError(f"unknown {what} policy {policy!r}")
        if max_size < 0:
            raise ValueError(f"negative {what} size cap {max_size}")

    def __init__(
        self,
        kernel: "Kernel",
        window: float,
        flush: Callable[[Hashable, list], None],
        *,
        policy: str = "static",
        max_size: int = 0,
        live: Optional[Callable[[], bool]] = None,
    ):
        self.kernel = kernel
        self.window = window
        self.max_size = max_size
        self._flush = flush
        self._live = live
        # ``None`` on the static policy: no enqueue-time bookkeeping,
        # and every deadline is ``window``.
        self.controller: Optional[AdaptiveWindow] = (
            AdaptiveWindow(window) if policy == "adaptive" else None
        )
        self._queues: dict[Hashable, list] = {}
        # Enqueue timestamps (adaptive only), parallel to ``_queues``.
        self._times: dict[Hashable, list[float]] = {}
        self._gen: dict[Hashable, int] = {}
        self.size_flushes = 0
        self.deadline_flushes = 0
        #: Items discarded by :meth:`drop` or by a dead owner's deadline.
        self.dropped = 0

    def add(self, key: Hashable, item: Any) -> None:
        """Queue ``item`` under ``key``; flush on size, else arm the deadline."""
        queue = self._queues.setdefault(key, [])
        queue.append(item)
        controller = self.controller
        if controller is not None:
            self._times.setdefault(key, []).append(self.kernel.now)
        if self.max_size and len(queue) >= self.max_size:
            # A full batch has nothing to gain from waiting out the window.
            self.size_flushes += 1
            self.flush(key)
        elif len(queue) == 1:
            window = controller.current if controller is not None else self.window
            self.kernel._schedule(window, self._deadline, key, self._gen.get(key, 0))

    def flush(self, key: Hashable) -> None:
        """Hand ``key``'s queue to the flush callback now (no-op if empty)."""
        queue = self._queues.get(key)
        if not queue:
            return
        self._queues[key] = []
        self._gen[key] = self._gen.get(key, 0) + 1
        controller = self.controller
        if controller is not None:
            times = self._times.get(key)
            if times:
                now = self.kernel.now
                controller.observe(sum(now - t for t in times))
                self._times[key] = []
        self._flush(key, queue)

    def flush_all(self) -> None:
        for key in list(self._queues):
            self.flush(key)

    def drop(self, match: Optional[Callable[[Hashable], bool]] = None) -> list:
        """Discard the queues whose key satisfies ``match`` (all by default).

        Bumps each dropped key's generation so its scheduled deadline
        fires inert, and returns the dropped items in queue order.
        """
        dropped: list = []
        for key in list(self._queues):
            if match is None or match(key):
                dropped.extend(self._drop(key))
        return dropped

    def _drop(self, key: Hashable) -> list:
        queue = self._queues.get(key)
        if not queue:
            return []
        self._queues[key] = []
        self._gen[key] = self._gen.get(key, 0) + 1
        if self._times.get(key):
            self._times[key] = []
        self.dropped += len(queue)
        return queue

    def _deadline(self, key: Hashable, generation: int) -> None:
        if self._gen.get(key, 0) != generation:
            return  # size-flushed or dropped since this deadline was armed
        if self._live is not None and not self._live():
            self._drop(key)
            return
        if self._queues.get(key):
            self.deadline_flushes += 1
        self.flush(key)

    @property
    def pending(self) -> int:
        """Items currently queued across every key."""
        return sum(len(queue) for queue in self._queues.values())
