"""Two-phase commit (§3.1, Figure 2) -- the homogeneous-world baseline.

The decision falls *in the middle* of local commitment (Figure 3): the
locals first move to the ready state (forcing their logs), the
coordinator decides, and only then do they finish committing.  This
requires every participating transaction manager to expose ``prepare``
-- the very capability the paper's heterogeneous setting lacks, so this
protocol runs only against :class:`~repro.localdb.interface.PreparableTMInterface`
sites (a standard site answers the prepare call with an
:class:`~repro.errors.UnsupportedInterface` failure and the global
transaction aborts).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import CommitProtocol, ProtocolContext


class TwoPhaseCommit(CommitProtocol):
    """Classic presumed-nothing 2PC over prepared local transactions.

    The skeleton every vote-then-decide protocol shares: Paxos Commit,
    3PC, presumed abort and Short-Commit subclass it and override one
    step each -- the decide step, the commit delivery, the prepare
    payload or the abort broadcast.
    """

    name = "2pc"
    requires_prepare = True
    #: how the vote map records a site that did not answer the prepare
    silent_vote = "timeout"

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        if (yield from self._execute(ctx)) is None:
            return
        gtxn = ctx.gtxn
        # Phase 1: prepare (locals enter the ready state).
        gtxn.set_state(GlobalTxnState.INQUIRE)
        all_ready, votes = yield from ctx.collect_votes(
            self.silent_vote, **self._prepare_payload()
        )
        # Decision -- made while locals sit in the ready state.
        decision = yield from self._decide(ctx, all_ready, votes)
        if decision != "commit":
            ctx.outcome.retriable = True
            yield from self._abort_running(
                ctx,
                # Only a replicated decision can overturn an all-ready vote.
                "participant voted abort" if not all_ready else "takeover chose abort",
                votes,
            )
            return
        # Phase 2: the decision reaches every participant that prepared,
        # surviving participant crashes (recovery reinstates in-doubt
        # locals).  Commit decisions are hardened at the central
        # decision log and routed through the group-decision pipeline
        # when enabled.
        gtxn.set_state(GlobalTxnState.WAITING_TO_COMMIT)
        yield from ctx.parallel(
            {
                site: self._deliver_commit(ctx, site)
                for site, vote in votes.items()
                if vote == "ready"
            }
        )
        gtxn.set_state(GlobalTxnState.COMMITTED)
        ctx.outcome.committed = True

    def _prepare_payload(self) -> dict[str, Any]:
        """What the vote request asks of a site: a forced prepare."""
        return {"force_prepare": True}

    def _decide(
        self, ctx: ProtocolContext, all_ready: bool, votes: dict[str, str]
    ) -> Generator[Any, Any, str]:
        """Make and record the decision from the phase-1 votes."""
        decision = "commit" if all_ready else "abort"
        ctx.gtxn.set_decision(decision, votes=votes)
        return decision
        yield  # pragma: no cover - generator protocol

    def _deliver_commit(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, str]:
        """Deliver the commit decision to one site, waiting out crashes."""
        return ctx.commit_until_done(site)
