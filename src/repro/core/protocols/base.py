"""Shared protocol machinery.

A protocol receives a :class:`ProtocolContext` per global transaction
and drives it to a :class:`~repro.core.global_txn.GlobalOutcome`.  The
context bundles the communication manager, the L1 lock table, the
redo/undo logs and retry/polling helpers shared by all protocols.

:class:`CommitProtocol` is also the one home of everything protocol-
specific that shared modules need: the execute-then-abort prologue,
the cheap abort of running locals, the L1 lock manager, whether an
acceptor group is built, and the coordinator-side recovery hooks the
:class:`~repro.core.recovery.GlobalRecoveryManager` calls.  Shared
modules call these hooks; they never compare a protocol name.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.errors import DeadlockDetected, LockTimeout, MessageTimeout, ProcessInterrupted
from repro.mlt.actions import Operation
from repro.mlt.conflicts import ConflictTable, L1Mode
from repro.mlt.locks import SemanticLockManager
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.global_txn import GlobalOutcome, GlobalTransaction
    from repro.core.gtm import GlobalTransactionManager, GTMConfig
    from repro.core.recovery import GlobalRecoveryManager
    from repro.core.redo import RedoLog
    from repro.core.undo import UndoLog
    from repro.integration.comm_central import CentralCommunicationManager
    from repro.integration.decompose import Decomposition
    from repro.sim.kernel import Kernel


class ExecutionFailure(Exception):
    """A subtransaction could not execute an operation.

    ``aborted`` distinguishes a dead local transaction from a pure
    logic error (key not found, duplicate) inside a live one.
    """

    def __init__(self, site: str, reason: str, aborted: bool):
        super().__init__(f"{site}: {reason}")
        self.site = site
        self.reason = reason
        self.aborted = aborted


class ProtocolContext:
    """Everything one protocol run needs."""

    def __init__(
        self,
        gtm: "GlobalTransactionManager",
        gtxn: "GlobalTransaction",
        decomposition: "Decomposition",
        outcome: "GlobalOutcome",
        intends_abort: bool,
    ):
        self.gtm = gtm
        self.kernel: "Kernel" = gtm.kernel
        self.config: "GTMConfig" = gtm.config
        self.comm: "CentralCommunicationManager" = gtm.comm
        self.l1: Optional["SemanticLockManager"] = gtm.l1
        self.redo_log: "RedoLog" = gtm.redo_log
        self.undo_log: "UndoLog" = gtm.undo_log
        self.gtxn = gtxn
        self.decomposition = decomposition
        self.outcome = outcome
        self.intends_abort = intends_abort

    # -- L1 locking --------------------------------------------------------

    def acquire_l1(self, operation: Operation) -> Generator[Any, Any, None]:
        """Take the L1 lock for ``operation`` (no-op without an L1 table).

        May raise :class:`~repro.errors.DeadlockDetected` or
        :class:`~repro.errors.LockTimeout`; the GTM turns those into a
        global abort (and possibly a retry of the whole transaction).
        """
        if self.l1 is None:
            return
        mode: L1Mode = self.l1.table.mode_for(operation.kind)
        yield from self.l1.acquire(
            self.gtxn.gtxn_id, (operation.table, operation.key), mode
        )

    def release_l1(self) -> None:
        if self.l1 is not None:
            self.l1.release_all(self.gtxn.gtxn_id)

    # -- messaging helpers -----------------------------------------------------

    def request(
        self, site: str, kind: str, **payload: Any
    ) -> Generator[Any, Any, Message]:
        """Request/reply with the configured timeout."""
        reply = yield from self.comm.request(
            site,
            kind,
            gtxn_id=self.gtxn.gtxn_id,
            timeout=self.config.msg_timeout,
            **payload,
        )
        return reply

    def request_until_answered(
        self, site: str, kind: str, **payload: Any
    ) -> Generator[Any, Any, Message]:
        """Retry a request until the site answers (waits out crashes).

        The paper's protocols assume the central system can wait for a
        local system "to come up again"; this helper is that wait.
        """
        while True:
            try:
                reply = yield from self.request(site, kind, **payload)
                return reply
            except MessageTimeout:
                yield self.config.status_poll_interval

    def decide_commit(
        self, site: str, marker_key: Optional[str] = None
    ) -> Generator[Any, Any, str]:
        """Deliver the commit decision to one site.

        The decision record is hardened at the central decision log
        first.  With the group-decision pipeline enabled, concurrent
        transactions deciding for the same site share one round-trip
        and one forced write.  Returns ``committed`` / ``aborted`` /
        ``ambiguous`` (timeout -- the caller's retry machinery takes
        over, exactly as for an individual decide).
        """
        pipeline = self.gtm.pipeline
        if pipeline is not None:
            outcome = yield from pipeline.decide(
                site, self.gtxn.gtxn_id, "commit", marker_key
            )
            return outcome
        self.gtm.decision_log.harden([self.gtxn.gtxn_id], "commit")
        try:
            # A decide may queue behind an in-flight redo of the same
            # transaction at the site; allow for that.
            reply = yield from self.comm.request(
                site, "decide", gtxn_id=self.gtxn.gtxn_id,
                timeout=self.config.msg_timeout * 4,
                decision="commit", marker_key=marker_key,
            )
            return reply.payload["outcome"]
        except MessageTimeout:
            return "ambiguous"

    def commit_until_done(self, site: str) -> Generator[Any, Any, str]:
        """Deliver the commit decision, waiting out crashed sites."""
        while True:
            outcome = yield from self.decide_commit(site)
            if outcome != "ambiguous":
                return outcome
            yield self.config.status_poll_interval

    def parallel(
        self, jobs: dict[str, Generator[Any, Any, Any]]
    ) -> Generator[Any, Any, dict[str, Any]]:
        """Run per-site generators concurrently; map exceptions to values."""
        processes = {
            key: self.kernel.spawn(job, name=f"{self.gtxn.gtxn_id}:{key}")
            for key, job in jobs.items()
        }
        for process in processes.values():
            # Per-site helpers die with their coordinator: a crashed
            # coordinator's pool interrupts every tracked process, so
            # none of them keeps driving the protocol from beyond the
            # grave.
            self.gtm.track_service(process)
        results: dict[str, Any] = {}
        for key, process in processes.items():
            try:
                results[key] = yield process
            except ProcessInterrupted:
                # The *coordinator* was interrupted (crash): propagate --
                # swallowing it here would keep the dead coordinator's
                # protocol running.
                raise
            except Exception as exc:  # noqa: BLE001 - collected for the caller
                results[key] = exc
        return results

    def collect_votes(
        self, silent_vote: str = "timeout", **payload: Any
    ) -> Generator[Any, Any, tuple[bool, dict[str, str]]]:
        """Phase 1: send ``prepare`` to every site and gather the votes.

        Returns ``(all_ready, votes)``: the vote map names each site's
        answer, ``silent_vote`` for a site that did not answer in time;
        ``all_ready`` holds when every site voted ``ready`` (or
        ``readonly``, which only a read-only-optimised request allows).
        """
        replies = yield from self.parallel(
            {
                site: self.request(site, "prepare", **payload)
                for site in self.decomposition.sites
            }
        )
        votes = {
            site: silent_vote if isinstance(reply, Exception) else reply.payload.get("vote")
            for site, reply in replies.items()
        }
        return all(vote in ("ready", "readonly") for vote in votes.values()), votes

    # -- subtransaction execution (shared by 2PC / after / before-per-site) ----

    def begin_subtransactions(self) -> Generator[Any, Any, None]:
        """Open one local transaction per participating site."""
        replies = yield from self.parallel(
            {
                site: self.request(site, "begin_subtxn")
                for site in self.decomposition.sites
            }
        )
        for site, reply in replies.items():
            if isinstance(reply, Exception):
                raise ExecutionFailure(site, f"begin failed: {reply}", aborted=True)

    def execute_operations(
        self,
        record_undo: bool = False,
        on_site_finished: Optional[Callable[[str], None]] = None,
        finish_markers: Optional[dict[str, str]] = None,
        collect_votes: bool = False,
    ) -> Generator[Any, Any, dict[str, str]]:
        """Stream the global operations to their sites in global order.

        Acquires the L1 lock per operation before dispatch, collects
        read results and (optionally) undo records with before-images.
        ``on_site_finished`` fires when a site's last operation is done
        -- commit-before uses it to commit locals as early as possible.

        ``finish_markers`` (commit-before per-site piggybacking) maps
        sites to commit-marker keys; a site's *last* operation then
        carries the local-commit request and its reply carries the
        local outcome.  Returns the piggybacked outcomes per site
        (empty when no markers were given).

        ``collect_votes`` (one-phase commit) asks each site to stamp a
        commit vote on the reply of its *last* operation -- the vote
        rides on a message that flows anyway, so the decision needs no
        extra voting round.  The votes come back in the returned dict.
        """
        from repro.mlt.actions import inverse_of

        remaining = {
            site: len(ops) for site, ops in self.decomposition.by_site.items()
        }
        piggybacked: dict[str, str] = {}
        for operation in self.decomposition.ordered:
            yield from self.acquire_l1(operation)
            payload: dict[str, Any] = {"op": operation}
            if (
                finish_markers is not None
                and remaining[operation.site] == 1
                and operation.site in finish_markers
            ):
                payload["finish_marker"] = finish_markers[operation.site]
            if collect_votes and remaining[operation.site] == 1:
                payload["vote_request"] = True
            try:
                reply = yield from self.request(
                    operation.site, "execute_op", **payload
                )
            except MessageTimeout as exc:
                raise ExecutionFailure(
                    operation.site, f"timeout on {operation}", aborted=True
                ) from exc
            if reply.kind == "op_failed":
                raise ExecutionFailure(
                    operation.site,
                    reply.payload.get("reason", "unknown"),
                    aborted=reply.payload.get("aborted", True),
                )
            value = reply.payload.get("value")
            before = reply.payload.get("before")
            if operation.kind == "read":
                self.outcome.reads[f"{operation.table}[{operation.key!r}]"] = value
            if record_undo:
                self.undo_log.record(
                    self.gtxn.gtxn_id,
                    operation.site,
                    operation,
                    inverse_of(operation, before),
                )
            if "outcome" in reply.payload:
                piggybacked[operation.site] = reply.payload["outcome"]
            if "vote" in reply.payload:
                piggybacked[operation.site] = reply.payload["vote"]
            remaining[operation.site] -= 1
            if remaining[operation.site] == 0 and on_site_finished is not None:
                on_site_finished(operation.site)
        return piggybacked


class CommitProtocol(abc.ABC):
    """Interface of an atomic commitment protocol."""

    #: short name used in configs, traces and reports
    name: str = "abstract"
    #: True if the local TMs must expose a ready state
    requires_prepare: bool = False
    #: decisions are chosen by a replicated ``2F + 1`` acceptor group:
    #: the federation builds the group, and a crashed coordinator's
    #: transactions are taken over at a higher ballot instead of adopted
    runs_acceptors: bool = False

    @abc.abstractmethod
    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        """Drive ``ctx.gtxn`` to a final state, filling ``ctx.outcome``."""

    def make_l1(
        self, kernel: "Kernel", table: ConflictTable, timeout: Optional[float]
    ) -> SemanticLockManager:
        """The L1 lock manager over ``table`` (the GTM builds it once)."""
        return SemanticLockManager(kernel, table, default_timeout=timeout, name="L1")

    # -- the execution prologue shared by every protocol that keeps its
    # -- locals running until the decision --------------------------------

    def _execute(
        self, ctx: ProtocolContext, **options: Any
    ) -> Generator[Any, Any, Optional[dict[str, str]]]:
        """Open the subtransactions and run every operation.

        An execution failure, an L1 conflict or an intended abort
        aborts the still-running locals (:meth:`_abort_running`).
        Returns the piggybacked replies of
        :meth:`ProtocolContext.execute_operations` (``options`` go to
        it), or ``None`` once the transaction was aborted.
        """
        try:
            yield from ctx.begin_subtransactions()
            replies = yield from ctx.execute_operations(**options)
        except ExecutionFailure as exc:
            replies = yield from self._execution_failed(ctx, exc)
            if replies is None:
                return None
        except (DeadlockDetected, LockTimeout) as exc:
            ctx.outcome.retriable = True
            yield from self._abort_running(ctx, reason=f"L1 conflict: {exc}")
            return None
        executed = yield from self._executed(ctx, replies)
        if not executed:
            return None
        if ctx.intends_abort:
            yield from self._abort_running(ctx, reason="intended abort")
            return None
        return replies

    def _execution_failed(
        self, ctx: ProtocolContext, exc: ExecutionFailure
    ) -> Generator[Any, Any, Optional[dict[str, str]]]:
        """A site could not execute: abort (retriable if its local died)."""
        ctx.outcome.retriable = exc.aborted
        yield from self._abort_running(ctx, reason=str(exc))
        return None

    def _executed(
        self, ctx: ProtocolContext, replies: dict[str, str]
    ) -> Generator[Any, Any, bool]:
        """Every operation ran; False if this step aborted the transaction."""
        return True
        yield  # pragma: no cover - generator protocol

    def _abort_running(
        self,
        ctx: ProtocolContext,
        reason: str,
        votes: Optional[dict[str, str]] = None,
    ) -> Generator[Any, Any, None]:
        """Abort while every local is still running -- the cheap path.

        ``votes`` is the phase-1 vote map when the abort follows a vote
        round; the decision was recorded with it then, so it is not
        recorded again.
        """
        if votes is None:
            ctx.gtxn.set_decision("abort", cause=reason)
        ctx.gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        yield from ctx.parallel(
            {
                site: ctx.request_until_answered(site, "decide", decision="abort")
                for site in ctx.decomposition.sites
            }
        )
        ctx.gtxn.set_state(GlobalTxnState.ABORTED)
        ctx.outcome.reason = reason

    # -- coordinator-side recovery hooks -----------------------------------
    # The GlobalRecoveryManager owns the mechanisms (sweeps, decision
    # redrives, marker checks); the protocol picks the ones that apply.
    # The defaults are the classic paths: the hardened decision, else
    # presumed abort.

    def redrive_obligations(
        self, recovery: "GlobalRecoveryManager", site: str
    ) -> Generator[Any, Any, None]:
        """What a restarted ``site`` is still owed once its in-doubt
        locals are decided (run on every recovery sweep)."""
        return
        yield  # pragma: no cover - generator protocol

    def on_orphan_reply(self, recovery: "GlobalRecoveryManager", message: Message) -> None:
        """A reply nobody waits for: the site may hold a live local that
        nothing will resolve, so terminate it with the decision."""
        recovery._terminate_orphan_reply(message)

    def adopt_orphan(
        self, recovery: "GlobalRecoveryManager", gtxn: Any
    ) -> Generator[Any, Any, bool]:
        """Settle one in-flight transaction of a crashed coordinator;
        True if every participant settled."""
        settled = yield from recovery._failover_decide(gtxn)
        return settled


def make_protocol(name: str) -> CommitProtocol:
    """Protocol factory used by the GTM configuration.

    Resolves through the protocol registry
    (:data:`repro.core.protocols.PROTOCOL_REGISTRY`), the single source
    of truth for the protocol matrix.
    """
    from repro.core.protocols import protocol_info

    return protocol_info(name).load()()
