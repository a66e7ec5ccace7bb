"""Local commitment *before* the global decision (§3.3/§4, Figures 6, 7).

The paper's contribution.  Local transactions commit independently, as
soon as they finish, releasing their L0 locks long before the global
transaction ends.  The GTM then *inquires* about final states; if the
outcomes are mixed (or the transaction intends to abort), committed
locals are undone by **inverse transactions** -- and a committed
inverse transaction means the local transaction is aborted (Figure 6's
hatched states).

Two granularities:

* ``per_site`` -- one local transaction per site, committed after the
  site's last action ([BST 90]/[WV 90] style).
* ``per_action`` -- the multi-level configuration of §4: every L1
  action runs as its own short L0 transaction, exactly Figure 8's
  two-level scheme lifted to the federation.  Combined with the
  semantic L1 conflict table this is the paper's recommended design:
  the undo-log and the L1 locks are the multi-level machinery itself,
  so atomic commitment adds no extra component.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import CommitProtocol, ExecutionFailure, ProtocolContext
from repro.errors import DeadlockDetected, LockTimeout, MessageTimeout
from repro.mlt.actions import Operation, inverse_of


class CommitBefore(CommitProtocol):
    """Locals commit first; global abort undoes via inverse transactions."""

    name = "before"
    requires_prepare = False

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        if self.per_action(ctx.config):
            yield from self._run_per_action(ctx)
        else:
            yield from self._run_per_site(ctx)

    def per_action(self, config: Any) -> bool:
        """Does a global transaction run one local per L1 action?

        Recovery must compensate the same locals the run committed.
        """
        return config.granularity == "per_action"

    # -- coordinator-side recovery: locals are terminal, undo is owed ------

    def redrive_obligations(self, recovery, site: str) -> Generator[Any, Any, None]:
        if not self.per_action(recovery.gtm.config):
            yield from recovery._redrive_undos(site)

    def on_orphan_reply(self, recovery, message: Any) -> None:
        """Nothing to terminate: a local answers only once it is
        terminal, and the coordinator settles its stragglers through
        the durable commit markers itself."""

    def adopt_orphan(self, recovery, gtxn: Any) -> Generator[Any, Any, bool]:
        """Presumed abort: unfinished locals abort, durably committed
        effects are compensated by inverse transactions."""
        if self.per_action(recovery.gtm.config):
            settled = yield from recovery._failover_undo_actions(gtxn)
        else:
            settled = yield from recovery._failover_before_site(gtxn)
        return settled

    # ------------------------------------------------------------------
    # Multi-level granularity: one L0 transaction per L1 action (§4)
    # ------------------------------------------------------------------

    def _run_per_action(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        gtxn = ctx.gtxn
        executed: list[tuple[int, Operation, Any]] = []  # (index, op, undo record)
        failure: Optional[str] = None
        try:
            for index, operation in enumerate(ctx.decomposition.ordered):
                yield from ctx.acquire_l1(operation)
                marker_key = f"{gtxn.gtxn_id}:{index}"
                value, before, retries = yield from self._execute_action(
                    ctx, operation, marker_key
                )
                ctx.outcome.l0_retries += retries
                if operation.kind == "read":
                    ctx.outcome.reads[f"{operation.table}[{operation.key!r}]"] = value
                record = ctx.undo_log.record(
                    gtxn.gtxn_id, operation.site, operation, inverse_of(operation, before)
                )
                executed.append((index, operation, record))
                self._action_done(ctx, index, operation)
        except ExecutionFailure as exc:
            failure = str(exc)
            ctx.outcome.retriable = exc.aborted
        except (DeadlockDetected, LockTimeout) as exc:
            failure = f"L1 conflict: {exc}"
            ctx.outcome.retriable = True
        failure = yield from self._before_decision(ctx, failure)

        # Decision point: every local effect is already committed.
        if failure is None and not ctx.intends_abort:
            gtxn.set_decision("commit")
            gtxn.set_state(GlobalTxnState.COMMITTED)
            ctx.outcome.committed = True
            ctx.undo_log.forget(gtxn.gtxn_id)
            return

        reason = failure or "intended abort"
        gtxn.set_decision("abort", cause=reason)
        gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        yield from self._undo_actions(ctx, executed)
        gtxn.set_state(GlobalTxnState.ABORTED)
        ctx.outcome.reason = reason
        ctx.undo_log.forget(gtxn.gtxn_id)

    def _action_done(self, ctx: ProtocolContext, index: int, operation: Operation) -> None:
        """The action at ``index`` committed locally (per-action hook)."""

    def _before_decision(
        self, ctx: ProtocolContext, failure: Optional[str]
    ) -> Generator[Any, Any, Optional[str]]:
        """Last per-action step before the decision; returns the failure
        reason the decision goes by (``None``: commit unless intended)."""
        return failure
        yield  # pragma: no cover - generator protocol

    def _execute_action(
        self, ctx: ProtocolContext, operation: Operation, marker_key: str
    ) -> Generator[Any, Any, tuple[Any, Any, int]]:
        """One L1 action as an L0 transaction, resolving crash ambiguity."""
        while True:
            try:
                reply = yield from ctx.request(
                    operation.site, "execute_l0", op=operation, marker_key=marker_key
                )
            except MessageTimeout:
                resolved = yield from self._resolve_action_ambiguity(
                    ctx, operation.site, marker_key
                )
                if resolved is not None:
                    return resolved
                continue  # not committed: safe to re-send
            if reply.kind == "l0_failed":
                raise ExecutionFailure(
                    operation.site,
                    reply.payload.get("reason", "unknown"),
                    aborted=reply.payload.get("aborted", True),
                )
            return (
                reply.payload.get("value"),
                reply.payload.get("before"),
                reply.payload.get("retries", 0),
            )

    def _resolve_action_ambiguity(
        self, ctx: ProtocolContext, site: str, marker_key: str
    ) -> Generator[Any, Any, Optional[tuple[Any, Any, int]]]:
        """After a timeout: did the action's L0 transaction commit?

        Returns the (value, before, retries) recovered from the durable
        marker when it did, ``None`` when it is safe to re-execute.
        """
        while True:
            yield ctx.config.status_poll_interval
            try:
                reply = yield from ctx.request(
                    site,
                    "status_query",
                    marker_key=marker_key,
                    durable=ctx.config.durable_status,
                )
            except MessageTimeout:
                continue  # site still down; wait for it to come up (§3.3)
            status = reply.payload["outcome"]
            if status == "committed":
                return (reply.payload.get("value"), reply.payload.get("before"), 0)
            if status in ("aborted", "unknown"):
                # "unknown" (volatile placement) forces a guess; the
                # re-execution may double-apply -- EXP-A2 shows it.
                return None

    def _undo_actions(
        self, ctx: ProtocolContext, executed: list[tuple[int, Operation, Any]]
    ) -> Generator[Any, Any, None]:
        """Run inverse actions in reverse order, each as an L0 txn."""
        for index, operation, record in reversed(executed):
            inverse = record.inverse
            if inverse is None:
                continue  # a read: nothing to undo
            marker_key = f"undo:{ctx.gtxn.gtxn_id}:{index}"
            ctx.kernel.trace.emit(
                "undo", "central", ctx.gtxn.gtxn_id, at=operation.site, op=str(inverse)
            )
            while True:
                try:
                    reply = yield from ctx.request(
                        operation.site,
                        "execute_l0",
                        op=inverse,
                        marker_key=marker_key,
                        undo=True,
                    )
                except MessageTimeout:
                    resolved = yield from self._resolve_action_ambiguity(
                        ctx, operation.site, marker_key
                    )
                    if resolved is not None:
                        break  # the inverse did commit
                    continue
                if reply.kind == "l0_done":
                    break
                yield ctx.config.status_poll_interval  # failed; retry (§3.3)
            ctx.undo_log.note_undo()
            ctx.outcome.undo_executions += 1

    # ------------------------------------------------------------------
    # Per-site granularity ([BST 90]/[WV 90] style)
    # ------------------------------------------------------------------

    def _run_per_site(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        gtxn = ctx.gtxn
        finishers: dict[str, Any] = {}
        piggyback = ctx.config.piggyback_decisions
        finish_markers = (
            {site: f"{gtxn.gtxn_id}:{site}" for site in ctx.decomposition.sites}
            if piggyback
            else None
        )

        def finish_site(site: str) -> None:
            # The site's last action is done: commit its local
            # transaction right now, before any global decision.
            finishers[site] = ctx.kernel.spawn(
                ctx.request_until_answered(
                    site, "finish_subtxn", marker_key=f"{gtxn.gtxn_id}:{site}"
                ),
                name=f"{gtxn.gtxn_id}:finish:{site}",
            )
            # Dies with the coordinator (pool crash interrupts it).
            ctx.gtm.track_service(finishers[site])

        failure: Optional[str] = None
        known: dict[str, str] = {}
        try:
            yield from ctx.begin_subtransactions()
            # With piggybacking the local-commit request rides on the
            # site's last data message and the outcome rides back on
            # its reply; otherwise a dedicated finish_subtxn round is
            # fired as each site's last action completes.
            known = yield from ctx.execute_operations(
                record_undo=True,
                on_site_finished=None if piggyback else finish_site,
                finish_markers=finish_markers,
            )
        except ExecutionFailure as exc:
            failure = str(exc)
            ctx.outcome.retriable = exc.aborted
        except (DeadlockDetected, LockTimeout) as exc:
            failure = f"L1 conflict: {exc}"
            ctx.outcome.retriable = True

        # Inquire phase (Figure 6): ask every site for the final state
        # of its local transaction.  Sites whose outcome already rode
        # back on a data reply are final and need no inquiry.  Sites
        # with an unfinished (running) subtransaction resolve it
        # themselves: commit if they finished their actions, abort
        # reply otherwise.
        gtxn.set_state(GlobalTxnState.INQUIRE)
        for process in finishers.values():
            yield process  # local commits are in flight; let them land
        # A still-running subtransaction at inquiry time either lost its
        # finish message (commit it) or never finished because the
        # execution failed (abort it -- the cheap abort of an unfinished
        # local).
        resolve = "abort" if failure is not None else "commit"
        votes = yield from ctx.parallel(
            {
                site: ctx.request_until_answered(
                    site,
                    "prepare",
                    final_state=True,
                    marker_key=f"{gtxn.gtxn_id}:{site}",
                    resolve=resolve,
                )
                for site in ctx.decomposition.sites
                if site not in known
            }
        )
        outcomes = dict(known)
        for site, reply in votes.items():
            outcomes[site] = (
                reply.payload.get("vote")
                if not isinstance(reply, Exception)
                else "aborted"
            )
        all_committed = all(v == "committed" for v in outcomes.values())

        if failure is None and not ctx.intends_abort and all_committed:
            gtxn.set_decision("commit")
            gtxn.set_state(GlobalTxnState.COMMITTED)
            ctx.outcome.committed = True
            ctx.undo_log.forget(gtxn.gtxn_id)
            return

        reason = failure or ("intended abort" if ctx.intends_abort else "mixed outcomes")
        if reason == "mixed outcomes":
            ctx.outcome.retriable = True
        gtxn.set_decision("abort", cause=reason)
        gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        undo_jobs = {
            site: self._undo_site(ctx, site)
            for site, vote in outcomes.items()
            if vote == "committed"
        }
        results = yield from ctx.parallel(undo_jobs)
        for result in results.values():
            if isinstance(result, Exception):
                raise result
        gtxn.set_state(GlobalTxnState.ABORTED)
        ctx.outcome.reason = reason
        ctx.undo_log.forget(gtxn.gtxn_id)

    def _undo_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, None]:
        """Undo one committed subtransaction with an inverse transaction."""
        if ctx.config.optimize_undo:
            from repro.core.undo import optimize_inverses

            forward_order = list(
                reversed(ctx.undo_log.inverses_for(ctx.gtxn.gtxn_id, site))
            )
            inverse_ops = optimize_inverses(forward_order)
        else:
            inverse_ops = [
                record.inverse
                for record in ctx.undo_log.inverses_for(ctx.gtxn.gtxn_id, site)
            ]
        if not inverse_ops:
            return
        marker_key = f"undo:{ctx.gtxn.gtxn_id}:{site}"
        ctx.kernel.trace.emit("undo", "central", ctx.gtxn.gtxn_id, at=site)
        while True:
            try:
                reply = yield from ctx.request(
                    site, "undo_subtxn", inverse_ops=inverse_ops, marker_key=marker_key
                )
            except MessageTimeout:
                committed = yield from self._marker_committed(ctx, site, marker_key)
                if committed:
                    break
                continue
            if reply.payload.get("outcome") == "undone":
                break
            yield ctx.config.status_poll_interval
        ctx.undo_log.note_undo()
        ctx.outcome.undo_executions += 1

    def _marker_committed(
        self, ctx: ProtocolContext, site: str, marker_key: str
    ) -> Generator[Any, Any, bool]:
        while True:
            yield ctx.config.status_poll_interval
            try:
                reply = yield from ctx.request(
                    site,
                    "status_query",
                    marker_key=marker_key,
                    durable=ctx.config.durable_status,
                )
            except MessageTimeout:
                continue
            return reply.payload["outcome"] == "committed"
