"""Local commitment *after* the global decision (§3.2, Figures 4 and 5).

No ready state is used: the communication manager answers the prepare
call as soon as the subtransaction finished its last action, while the
local transaction is still *running*.  Between that answer and the
arrival of the commit decision the local system may abort the
transaction autonomously (timeout, validation failure, system abort,
crash) -- an *erroneous* abort.  The protocol's two obligations
(paper's requirements):

* **Redo requirement** -- an erroneously aborted local is repeated,
  from the redo-log, until it commits.
* **Serializability requirement** -- the serialization order of the
  first execution must survive the repetition; the GTM enforces it by
  holding read/write L1 locks on every touched object until all locals
  finally committed, so no conflicting global transaction can slip
  between first execution and redo.

Ambiguity after a site crash ("did the commit land before the crash?")
is resolved through the commit-marker relation when the federation uses
in-database log placement; with volatile placement the protocol must
guess, reproducing the paper's two erroneous situations (EXP-A2).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import CommitProtocol, ExecutionFailure, ProtocolContext
from repro.errors import MessageTimeout


class CommitAfter(CommitProtocol):
    """Decision first, local commits afterwards (with redo)."""

    name = "after"
    requires_prepare = False

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        # Intended aborts are the strong suit of this protocol: all
        # locals are still running, a plain abort suffices (§4.3).
        if (yield from self._execute(ctx)) is None:
            return
        gtxn = ctx.gtxn
        # Inquire: communication managers answer from the running state.
        gtxn.set_state(GlobalTxnState.INQUIRE)
        all_ready, _votes = yield from ctx.collect_votes(force_prepare=False)
        decision = "commit" if all_ready else "abort"
        gtxn.set_decision(decision)

        if decision == "abort":
            ctx.outcome.retriable = True
            yield from self._abort_running(ctx, reason="participant not ready")
            return
        yield from self._commit_all(ctx)

    def _executed(
        self, ctx: ProtocolContext, replies: dict[str, str]
    ) -> Generator[Any, Any, bool]:
        # Register every subtransaction in the redo-log *before* any
        # decision can be sent: redo must be possible from stable
        # central state.
        for site, operations in ctx.decomposition.by_site.items():
            ctx.redo_log.record(ctx.gtxn.gtxn_id, site, operations)
        return True
        yield  # pragma: no cover - generator protocol

    def _abort_running(
        self,
        ctx: ProtocolContext,
        reason: str,
        votes: Optional[dict[str, str]] = None,
    ) -> Generator[Any, Any, None]:
        yield from super()._abort_running(ctx, reason, votes)
        ctx.redo_log.forget(ctx.gtxn.gtxn_id)

    def _commit_all(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        """Commit phase: every local must reach its committed final
        state, repeating erroneously aborted ones (Figure 4's double
        arrow).  L1 locks stay held throughout."""
        gtxn = ctx.gtxn
        gtxn.set_state(GlobalTxnState.WAITING_TO_COMMIT)
        results = yield from ctx.parallel(
            {
                site: self._commit_site(ctx, site)
                for site in ctx.decomposition.sites
            }
        )
        for site, result in results.items():
            if isinstance(result, Exception):
                raise result
            ctx.outcome.redo_executions += result
        gtxn.set_state(GlobalTxnState.COMMITTED)
        ctx.outcome.committed = True
        ctx.redo_log.forget(gtxn.gtxn_id)

    # -- coordinator-side recovery: the §3.2 redo obligation -------------

    def redrive_obligations(self, recovery, site: str) -> Generator[Any, Any, None]:
        yield from recovery._redrive_redos(site)

    def adopt_orphan(self, recovery, gtxn: Any) -> Generator[Any, Any, bool]:
        settled = yield from recovery._failover_decide(gtxn, redo_window=True)
        return settled

    # ------------------------------------------------------------------

    def _commit_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, int]:
        """Drive one site's subtransaction into the committed state.

        Returns the number of redo executions that were needed.
        """
        gtxn_id = ctx.gtxn.gtxn_id
        marker_key = gtxn_id
        redo_count = 0
        outcome = yield from self._try_decide(ctx, site, marker_key)
        while True:
            # Only actual redo executions count against the limit;
            # ambiguity polls while a site is down do not.
            if redo_count > ctx.config.max_redo_rounds:
                raise ExecutionFailure(site, "redo rounds exhausted", aborted=True)
            if outcome == "committed":
                ctx.redo_log.mark_committed(gtxn_id, site)
                return redo_count
            if outcome == "aborted":
                # Erroneous local abort after the ready answer: repeat
                # the subtransaction from the redo-log (§3.2).
                entry = ctx.redo_log.entry(gtxn_id, site)
                ctx.redo_log.note_redo(gtxn_id, site)
                redo_count += 1
                ctx.kernel.trace.emit("redo", "central", gtxn_id, at=site)
                outcome = yield from self._try_redo(ctx, site, entry.operations, marker_key)
                continue
            # Ambiguous (crash/lost message): wait, then ask for status.
            yield ctx.config.status_poll_interval
            outcome = yield from self._query_status(ctx, site, marker_key)
            if outcome == "running":
                # The decision message was lost; resend it.
                outcome = yield from self._try_decide(ctx, site, marker_key)

    def _try_decide(self, ctx: ProtocolContext, site: str, marker_key: str) -> Generator[Any, Any, str]:
        # Routes through the group-decision pipeline when the GTM has
        # one: concurrent transactions deciding for this site share one
        # decide round-trip and one forced decision-log write.
        outcome = yield from ctx.decide_commit(site, marker_key)
        return outcome

    def _try_redo(
        self, ctx: ProtocolContext, site: str, operations, marker_key: str
    ) -> Generator[Any, Any, str]:
        try:
            # Redo executions retry local conflicts internally and can
            # legitimately run long; an eager timeout would flood the
            # site with duplicate redo requests.
            reply = yield from ctx.comm.request(
                site, "redo_subtxn", gtxn_id=ctx.gtxn.gtxn_id,
                timeout=ctx.config.msg_timeout * 20,
                ops=operations, marker_key=marker_key,
            )
            return (
                "committed"
                if reply.payload.get("outcome") == "committed"
                else "aborted"
            )
        except MessageTimeout:
            return "ambiguous"

    def _query_status(self, ctx: ProtocolContext, site: str, marker_key: str) -> Generator[Any, Any, str]:
        try:
            reply = yield from ctx.request(
                site,
                "status_query",
                marker_key=marker_key,
                durable=ctx.config.durable_status,
            )
        except MessageTimeout:
            return "ambiguous"
        status = reply.payload["outcome"]
        if status == "unknown":
            # Volatile log placement after a crash: the protocol must
            # guess.  Assuming "aborted" triggers a redo -- possibly a
            # double execution if the commit did land (EXP-A2).
            return "aborted"
        return status
