"""Three-phase commit ([Ske 81]) -- nonblocking extension baseline.

The paper's §5 notes a whole generation of 2PC derivatives, e.g.
nonblocking commit, at the price of more messages and log writes and of
*even deeper* changes to the local transaction managers.  This
implementation adds the pre-commit round between voting and the final
decision so the message/log complexity table (EXP-T5) can quantify that
price.  Like 2PC it runs only against preparable (modified) interfaces;
coordinator-failure takeover is out of scope here, as it is in the
paper.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.two_phase import TwoPhaseCommit


class ThreePhaseCommit(TwoPhaseCommit):
    """2PC with an acknowledged pre-commit round."""

    name = "3pc"
    requires_prepare = True

    def _decide(
        self, ctx: ProtocolContext, all_ready: bool, votes: dict[str, str]
    ) -> Generator[Any, Any, str]:
        if all_ready:
            # Phase 2: pre-commit -- the round that buys nonblocking-ness.
            # Phase 3, the do-commit, is the 2PC commit delivery.
            yield from ctx.parallel(
                {
                    site: ctx.request_until_answered(site, "pre_commit")
                    for site in ctx.decomposition.sites
                }
            )
        decision = "commit" if all_ready else "abort"
        ctx.gtxn.set_decision(decision)
        return decision
