"""The simulation's hot path stays out of the cyclic garbage collector.

Two rules (``docs/performance.md``, "Garbage collector"):

* retained history holds no GC-tracked object per record -- the trace
  keeps each emit's fields in one flat list and builds
  :class:`TraceRecord` objects only when a reader asks;
* the hot path creates no reference cycles, so everything a finished
  transaction leaves behind is freed by reference counting alone.
"""

from __future__ import annotations

import gc
import random
from typing import Any

import pytest

from repro.core.gtm import GTMConfig
from repro.errors import TransactionAborted
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.localdb.locks import LockManager, LockMode
from repro.mlt.conflicts import SEMANTIC_TABLE, L1Mode
from repro.mlt.locks import SemanticLockManager
from repro.sim.kernel import Kernel
from repro.sim.tracing import TraceLog, TraceRecord
from repro.workloads.banking import account_table, transfer
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SITES = 3
ACCOUNTS = 4


class TestTraceStorage:
    def test_emits_add_a_constant_number_of_tracked_objects(self):
        trace = TraceLog(Kernel(seed=0))
        trace.emit("warm-up", "s0", "t0")
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            trace.emit("message", "s0", f"m{i}", kind="prepare", seq=i, at=1.5)
        assert len(gc.get_objects()) - before <= 20
        assert len(trace) == 10_001

    def test_records_are_built_in_emit_order(self):
        kernel = Kernel(seed=0)
        trace = kernel.trace
        trace.emit("lock", "s0", "t1", mode="X")
        trace.emit("message", "central", "prepare")
        assert trace.records == [
            TraceRecord(0.0, "lock", "s0", "t1", {"mode": "X"}),
            TraceRecord(0.0, "message", "central", "prepare", {}),
        ]
        assert list(trace) == trace.records
        assert len(trace) == 2

    def test_records_catch_up_when_read_again(self):
        trace = TraceLog(Kernel(seed=0))
        trace.emit("x", "s", "a")
        first = trace.records
        assert [r.subject for r in first] == ["a"]
        trace.emit("x", "s", "b")
        # The cached list is brought up to date by the next read.
        assert [r.subject for r in trace.records] == ["a", "b"]
        assert trace.records is first

    def test_select_filters_like_records(self):
        trace = TraceLog(Kernel(seed=0))
        for i in range(12):
            trace.emit(("lock", "log")[i % 2], f"s{i % 3}", f"t{i % 4}", n=i)
        records = trace.records
        for filters in (
            {},
            {"category": "lock"},
            {"site": "s1"},
            {"subject": "t2"},
            {"category": "log", "site": "s2", "subject": "t1"},
            {"category": "lock", "predicate": lambda r: r.details["n"] > 4},
        ):
            predicate = filters.get("predicate", lambda r: True)
            expected = [
                r for r in records
                if all(getattr(r, k) == v for k, v in filters.items() if k != "predicate")
                and predicate(r)
            ]
            assert trace.select(**filters) == expected
        assert trace.first(category="log") == records[1]
        assert trace.last(site="s0") == records[9]
        assert trace.first(category="missing") is None
        assert trace.subjects("lock") == ["t0", "t2"]

    def test_str_and_dump_render_as_before(self):
        kernel = Kernel(seed=0)
        kernel.trace.emit("txn_state", "bank_a", "t1", state="committed", n=2)
        line = "[     0.000] bank_a       txn_state  t1 state=committed n=2"
        assert str(kernel.trace.records[0]) == line
        assert kernel.trace.dump(category="txn_state") == line

    def test_sink_sees_the_same_lines(self):
        trace = TraceLog(Kernel(seed=0))
        seen: list[str] = []
        trace.attach_sink(seen.append)
        trace.emit("lock", "s0", "t1", mode="S")
        trace.emit("site", "s1", "up")
        assert seen == [str(r) for r in trace.records]


def _bank_sites(preparable: bool) -> list[SiteSpec]:
    return [
        SiteSpec(
            f"bank_{i}",
            tables={account_table(i): {f"acct{i}_{j}": 1000 for j in range(ACCOUNTS)}},
            preparable=preparable,
        )
        for i in range(SITES)
    ]


def _two_phase_run(pipeline_window: float = 0.0) -> Federation:
    """2PC per site: contended transfers that wait, time out and abort.

    A ``pipeline_window`` sends decisions to each site in groups.
    """
    rng = random.Random(5)
    gtm = GTMConfig(protocol="2pc", granularity="per_site", pipeline_window=pipeline_window)
    fed = Federation(_bank_sites(preparable=True), FederationConfig(seed=5, gtm=gtm))
    fed.run_transactions([
        {"operations": transfer(rng, SITES, ACCOUNTS), "delay": float(i // 4)}
        for i in range(80)
    ])
    return fed


def _commit_before_run() -> Federation:
    """Commit-before per action on hot accounts, with intended aborts."""
    rng = random.Random(6)
    objects = [
        (account_table(i), f"acct{i}_{j}") for j in range(ACCOUNTS) for i in range(SITES)
    ]
    generator = WorkloadGenerator(
        WorkloadSpec(
            ops_per_txn=3, read_fraction=0.3, increment_fraction=0.5,
            hotspot_fraction=0.5, hot_object_count=3, intended_abort_rate=0.1,
        ),
        objects,
    )
    fed = Federation(
        _bank_sites(preparable=False),
        FederationConfig(seed=6, gtm=GTMConfig(protocol="before", granularity="per_action")),
    )
    batches = []
    for i in range(60):
        operations, intends_abort = generator.next_transaction(rng)
        batches.append({
            "operations": operations, "intends_abort": intends_abort,
            "delay": float(i // 4),
        })
    fed.run_transactions(batches)
    return fed


def _cyclic_garbage(run) -> tuple[Any, list]:
    """Run ``run`` with every collected cycle kept in ``gc.garbage``.

    Returns what ``run`` returned -- holding on to it, so that only what
    the run discarded counts -- and the garbage.
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fed = run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return fed, garbage


def _describe(garbage: list) -> list[str]:
    return sorted({type(obj).__name__ for obj in garbage})


def _cancelled_wait(make_locks, mode, timeout):
    """One waiter queued behind a holder, then aborted from outside."""
    kernel = Kernel(seed=0)
    locks = make_locks(kernel)
    outcome: list[str] = []

    def holder():
        yield from locks.acquire("t1", "r", mode)
        yield 100
        locks.release_all("t1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("t2", "r", mode, timeout=timeout)
        except TransactionAborted:
            outcome.append("aborted")

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.call_at(3, lambda: locks.cancel_wait("t2", TransactionAborted("t2", "test")))
    kernel.run()
    # The kernel is returned to keep it alive: it references itself
    # through its trace and bound methods, which is not hot-path garbage.
    return kernel, outcome


class TestNoReferenceCycles:
    @pytest.mark.parametrize("timeout", [None, 50.0])
    @pytest.mark.parametrize(
        "make_locks, mode",
        [
            (lambda kernel: LockManager(kernel, "s0"), LockMode.EXCLUSIVE),
            (lambda kernel: SemanticLockManager(kernel, SEMANTIC_TABLE), L1Mode.EXCLUSIVE),
        ],
        ids=["L0", "L1"],
    )
    def test_aborted_lock_wait_leaves_no_cycle(self, make_locks, mode, timeout):
        (_kernel, outcome), garbage = _cyclic_garbage(
            lambda: _cancelled_wait(make_locks, mode, timeout)
        )
        assert outcome == ["aborted"]
        assert garbage == [], _describe(garbage)

    def test_two_phase_commit_leaves_no_cyclic_garbage(self):
        fed, garbage = _cyclic_garbage(_two_phase_run)
        # The run must exercise lock waits and aborted waits.
        assert sum(e.locks.waits for e in fed.engines.values()) > 0
        assert fed.pool.metrics()["global_aborted"] > 0
        assert garbage == [], _describe(garbage)

    def test_commit_before_leaves_no_cyclic_garbage(self):
        fed, garbage = _cyclic_garbage(_commit_before_run)
        assert fed.pool.metrics()["l1_waits"] > 0
        assert garbage == [], _describe(garbage)

    def test_gtxn_locks_are_dropped_at_quiescence(self):
        grouped = _two_phase_run(pipeline_window=1.0)
        assert grouped.pool.metrics()["decision_groups"] > 0
        for fed in (_two_phase_run(), grouped, _commit_before_run()):
            for comm in fed.comms.values():
                assert comm._gtxn_locks == {}
