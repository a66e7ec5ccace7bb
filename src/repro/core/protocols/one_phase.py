"""Logless one-phase commit -- the "To Vote Before Decide" style.

The classic objection to 1PC is that the coordinator cannot know the
participants' votes without a voting round.  The answer here (after
"To Vote Before Decide", PAPERS.md) is that the vote already exists
*during execution*: a participant that executed its last operation
successfully has, by that fact, voted yes.  The vote is therefore
piggybacked on the reply of the site's **last operation** -- a message
that flows anyway -- and the coordinator decides the moment execution
finishes, with **no extra voting round and no prepare force** at the
participants (the "logless" half: participants write no ready record;
the only durable vote is the coordinator's replicated decision).

Cost per participant with *n* sites: ``2n`` protocol messages (decide
+ finished; the votes ride on data messages) and **one** log force
(the local commit record) -- against 2PC's ``4n`` messages and two
forces, and commit-after's ``4n`` messages and one force.

What the protocol gives up is the ready state: between the piggybacked
vote and the arrival of the decision the local transaction is still
*running*, so it can be aborted autonomously -- exactly the §3.2
erroneous-abort window.  The obligations are inherited from
commit-after: erroneously aborted locals are re-executed from the
redo-log until they commit, and the GTM holds read/write L1 locks
until every local committed so the repetition preserves the
serialization order.  In-doubt locals after a crash are resolved
through the replicated decision read path (the central decision log,
or the acceptor group under the Paxos coordinator mode): decision
present -> re-drive the commit, absent -> presumed abort.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import ExecutionFailure, ProtocolContext
from repro.core.protocols.commit_after import CommitAfter


class OnePhaseCommit(CommitAfter):
    """Vote during execution; decide with no extra round."""

    name = "one_phase"
    requires_prepare = False

    #: Seeded mutant (``repro.check --mutant presume_commit``): treat a
    #: missing vote -- a site that died or aborted before its last
    #: operation answered -- as a yes, and never re-drive the lost
    #: subtransaction.  The checker must catch the lost effect.
    presume_commit = False

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        votes = yield from self._execute(ctx, collect_votes=True)
        if votes is None:
            return
        # The decision: no voting round happened and none is needed.
        gtxn = ctx.gtxn
        gtxn.set_decision("commit")
        if self.presume_commit and self._missing_votes(ctx, votes):
            # MUTANT: decide once per site and declare victory whatever
            # comes back -- the lost subtransaction is never repeated.
            gtxn.set_state(GlobalTxnState.WAITING_TO_COMMIT)
            for site in ctx.decomposition.sites:
                yield from ctx.decide_commit(site)
            gtxn.set_state(GlobalTxnState.COMMITTED)
            ctx.outcome.committed = True
            ctx.redo_log.forget(gtxn.gtxn_id)
            return
        yield from self._commit_all(ctx)

    def _execution_failed(
        self, ctx: ProtocolContext, exc: ExecutionFailure
    ) -> Generator[Any, Any, Optional[dict[str, str]]]:
        if self.presume_commit and exc.aborted:
            # MUTANT: a dead local never voted, but we presume it said
            # yes and fall through to the decision.
            return {}
        replies = yield from super()._execution_failed(ctx, exc)
        return replies

    def _executed(
        self, ctx: ProtocolContext, votes: dict[str, str]
    ) -> Generator[Any, Any, bool]:
        missing = self._missing_votes(ctx, votes)
        if missing and not self.presume_commit:
            # Can only happen against a site that answered the last
            # operation without stamping the vote -- a foreign or
            # downgraded communication manager.  Without the vote there
            # is no 1PC; abort (retriable: nothing was decided).
            ctx.outcome.retriable = True
            yield from self._abort_running(
                ctx, reason=f"no piggybacked vote from {missing}"
            )
            return False
        # Redo must be possible from stable central state before any
        # decision is sent (the §3.2 obligation, unchanged from
        # commit-after).
        recorded = yield from super()._executed(ctx, votes)
        return recorded

    @staticmethod
    def _missing_votes(ctx: ProtocolContext, votes: dict[str, str]) -> list[str]:
        return [site for site in ctx.decomposition.sites if votes.get(site) != "ready"]
