"""Presumed-abort 2PC with the read-only optimization ([ML 83]).

§5 points at "a complete generation of derived protocols [that] improve
two phase commit in many directions, e.g. ... the complexity in terms
of writes to the log [ML 83]".  This variant implements the two classic
improvements:

* **presumed abort** -- abort decisions are fire-and-forget: no
  acknowledgements are awaited and nothing about an abort needs to be
  hardened (an inquiring participant that finds no information presumes
  abort);
* **read-only optimization** -- a participant that executed only reads
  answers the vote request with ``readonly``, commits immediately
  (releasing its read locks) and is excluded from phase 2 entirely;
  a fully read-only transaction finishes after a single round.

Like plain 2PC it requires preparable (modified) local TMs -- and, like
the paper argues, is therefore *more* intrusive, not less: every
derived protocol deepens the dependency on changeable local systems.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.two_phase import TwoPhaseCommit


class PresumedAbort2PC(TwoPhaseCommit):
    """2PC with presumed abort and read-only participants.

    Phase 2 reaches only the ``ready`` voters (the updaters): the 2PC
    skeleton delivers commits to those alone, so read-only
    participants are done after the vote.
    """

    name = "2pc-pa"
    requires_prepare = True
    #: presumed abort: a silent participant counts as a no vote
    silent_vote = "abort"

    def _prepare_payload(self) -> dict[str, Any]:
        return {"force_prepare": True, "allow_readonly": True}

    def _abort_running(
        self,
        ctx: ProtocolContext,
        reason: str,
        votes: Optional[dict[str, str]] = None,
    ) -> Generator[Any, Any, None]:
        """Fire-and-forget aborts: presumed abort needs no acks.

        After a vote round only the updaters hear of it; a no voter
        aborted on its own and a read-only one already committed.
        """
        ctx.gtxn.set_decision("abort", cause=reason)
        ctx.gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        targets = (
            ctx.decomposition.sites
            if votes is None
            else [site for site, vote in votes.items() if vote == "ready"]
        )
        for site in targets:
            ctx.comm.send(
                site, "decide", gtxn_id=ctx.gtxn.gtxn_id,
                decision="abort", noreply=True,
            )
        ctx.gtxn.set_state(GlobalTxnState.ABORTED)
        ctx.outcome.reason = reason
        return
        yield  # pragma: no cover - generator protocol
