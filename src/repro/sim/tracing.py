"""Structured trace log.

Every interesting event in a run -- state transitions, messages, lock
grants, log forces, redo/undo executions -- is appended to the kernel's
:class:`TraceLog`.  Experiments and the figure-conformance tests query
the log, as :class:`TraceRecord` objects, instead of instrumenting the
code under test.

An emit stores only its five fields, in a flat list the cyclic garbage
collector never has to walk record by record; :class:`TraceRecord`
objects are built when a reader asks for them.  Records are rendered
to text only when a *sink* is attached (:meth:`TraceLog.attach_sink`)
or a dump is requested -- formatting is lazy, so the common no-sink run
pays nothing per event beyond storing the fields.  Disabling the log
entirely (``trace.enabled = False``) turns :meth:`TraceLog.emit` into
an early return; hot callers additionally guard on
:attr:`TraceLog.enabled` to skip building the keyword payload at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class TraceRecord:
    """One timestamped event.

    A hand-written slots class rather than a frozen dataclass: readers
    build one per record they fetch from a :class:`TraceLog`, and the
    frozen-dataclass ``object.__setattr__`` per field tripled
    construction cost.  Treat instances as immutable by convention.

    Attributes
    ----------
    time:
        Simulated time of the event.
    category:
        Coarse event class, e.g. ``"message"``, ``"txn_state"``,
        ``"lock"``, ``"log"``, ``"gtxn_state"``, ``"redo"``, ``"undo"``.
    site:
        Name of the node the event happened on (``"central"`` for the
        global system).
    subject:
        Identifier of the entity involved (transaction id, lock name,
        message type, ...).
    details:
        Free-form payload.
    """

    __slots__ = ("time", "category", "site", "subject", "details")

    def __init__(
        self,
        time: float,
        category: str,
        site: str,
        subject: str,
        details: Optional[dict[str, Any]] = None,
    ):
        self.time = time
        self.category = category
        self.site = site
        self.subject = subject
        self.details = {} if details is None else details

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.site == other.site
            and self.subject == other.subject
            and self.details == other.details
        )

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:10.3f}] {self.site:<12} {self.category:<10} {self.subject} {detail}"

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"site={self.site!r}, subject={self.subject!r}, details={self.details!r})"
        )


#: Fields each emit appends to :attr:`TraceLog._raw`, in this order:
#: time, category, site, subject, details.
_FIELDS = 5


class TraceLog:
    """Append-only event log with simple query helpers.

    Storage is one flat list holding each emit's five fields in turn --
    no per-record object is allocated while the simulation runs.  A
    record's keyword payload is a dict of atomic values, which CPython
    leaves untracked by the cyclic garbage collector, so retained
    history costs the collector nothing per record.  (A tuple per
    record would not do: CPython never untracks a tuple that holds a
    dict.)

    :attr:`records` builds the :class:`TraceRecord` objects on first
    read and caches them; :meth:`select`, :meth:`first`, :meth:`last`,
    :meth:`subjects`, :meth:`dump` and ``len()`` work on the flat list
    and build only the records they return.

    Rule for readers: the list :attr:`records` returns is brought up to
    date only when :attr:`records` is read again.  Do not hold it across
    later emits and expect it to grow; re-read the attribute instead.
    """

    __slots__ = ("_kernel", "_raw", "_built", "enabled", "_sink")

    def __init__(self, kernel: "Kernel"):
        self._kernel = kernel
        self._raw: list[Any] = []
        self._built: list[TraceRecord] = []
        self.enabled = True
        self._sink: Optional[Callable[[str], None]] = None

    def attach_sink(self, sink: Callable[[str], None]) -> None:
        """Stream formatted lines to ``sink`` as records are emitted.

        Formatting happens only while a sink is attached; remove it
        again with :meth:`detach_sink`.
        """
        self._sink = sink

    def detach_sink(self) -> None:
        self._sink = None

    def emit(self, category: str, site: str, subject: str, **details: Any) -> None:
        """Append a record stamped with the current simulated time."""
        if not self.enabled:
            return
        now = self._kernel._now
        self._raw.extend((now, category, site, subject, details))
        if self._sink is not None:
            self._sink(str(TraceRecord(now, category, site, subject, details)))

    @property
    def records(self) -> list[TraceRecord]:
        """Every record so far, in emit order (built on first read, cached)."""
        built = self._built
        raw = self._raw
        start = len(built) * _FIELDS
        if start < len(raw):
            built.extend(self._build(range(start, len(raw), _FIELDS)))
        return built

    # -- queries -----------------------------------------------------------

    def _build(self, starts: Iterable[int]) -> Iterator[TraceRecord]:
        raw = self._raw
        for i in starts:
            yield TraceRecord(raw[i], raw[i + 1], raw[i + 2], raw[i + 3], raw[i + 4])

    def _starts(
        self,
        category: Optional[str] = None,
        site: Optional[str] = None,
        subject: Optional[str] = None,
    ) -> Iterable[int]:
        """Offsets into the flat list of the records matching the filters."""
        raw = self._raw
        starts: Iterable[int] = range(0, len(raw), _FIELDS)
        for offset, wanted in ((1, category), (2, site), (3, subject)):
            if wanted is not None:
                starts = [i for i in starts if raw[i + offset] == wanted]
        return starts

    def select(
        self,
        category: Optional[str] = None,
        site: Optional[str] = None,
        subject: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Return records matching all the given filters, in time order."""
        matches = self._build(self._starts(category, site, subject))
        if predicate is None:
            return list(matches)
        return [record for record in matches if predicate(record)]

    def first(self, **filters: Any) -> Optional[TraceRecord]:
        """First record matching ``select`` filters, or ``None``."""
        matches = self.select(**filters)
        return matches[0] if matches else None

    def last(self, **filters: Any) -> Optional[TraceRecord]:
        """Last record matching ``select`` filters, or ``None``."""
        matches = self.select(**filters)
        return matches[-1] if matches else None

    def subjects(self, category: str) -> list[str]:
        """Distinct subjects seen for ``category``, in first-seen order."""
        raw = self._raw
        return list(dict.fromkeys(raw[i + 3] for i in self._starts(category)))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self._raw) // _FIELDS

    def dump(self, **filters: Any) -> str:
        """Human-readable rendering of matching records."""
        return "\n".join(str(r) for r in self.select(**filters))
