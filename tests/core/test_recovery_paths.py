"""Which coordinator-side recovery path each registered protocol takes.

The recovery manager owns the mechanisms -- redo and undo redrives
after a site restart, orphan-reply termination, orphan adoption after a
coordinator crash -- and each protocol picks the ones that apply.  The
tables below pin those choices for every registered protocol at both
granularities.  ``saga`` and ``altruistic`` execute like commit-before
but keep the *classic* paths (hardened decision, else presumed abort):
they must never inherit commit-before's undo redrives.

Each mechanism is replaced by a recording spy, so a test observes only
which path was chosen, not what the mechanism then does.
"""

from __future__ import annotations

import pytest

from repro.core.gtm import GTMConfig
from repro.core.pool import CoordinatorPool
from repro.core.protocols import protocol_names, protocol_info
from repro.core.recovery import GlobalRecoveryManager
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.net.message import Message

CASES = [
    (protocol, granularity)
    for protocol in protocol_names()
    for granularity in ("per_site", "per_action")
]

#: Restart recovery: §3.2 redo redrives for the running-vote family,
#: commit-before undo redrives only at per-site granularity.
REDO_REDRIVE = {"after", "one_phase"}
UNDO_REDRIVE = {("before", "per_site")}
#: Orphan replies: commit-before locals are terminal when they answer.
NO_ORPHAN_TERMINATION = {"before"}
#: Orphan adoption: commit-before compensates, everyone else redrives
#: the hardened decision (or presumed abort).
ADOPTION = {
    ("before", "per_action"): "_failover_undo_actions",
    ("before", "per_site"): "_failover_before_site",
    # The baselines run per action whatever the granularity says.
    ("saga", "per_action"): "_failover_undo_actions",
    ("saga", "per_site"): "_failover_undo_actions",
    ("altruistic", "per_action"): "_failover_undo_actions",
    ("altruistic", "per_site"): "_failover_undo_actions",
}
#: Coordinator crash: acceptor-group protocols are taken over at a
#: higher ballot after a timeout instead of adopted at once.
TAKEOVER = {"paxos"}


def _finished(result=None):
    return result
    yield  # pragma: no cover - generator protocol


def spy(monkeypatch, cls, name, calls, result=None):
    def method(self, *args, **kwargs):
        calls.append(name)
        return _finished(result)

    monkeypatch.setattr(cls, name, method)


def build(protocol: str, granularity: str, coordinators: int = 1) -> Federation:
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {"x": 100}},
            preparable=protocol_info(protocol).requires_prepare,
        )
        for i in range(2)
    ]
    return Federation(specs, FederationConfig(
        seed=3, reliable=True, coordinators=coordinators,
        gtm=GTMConfig(protocol=protocol, granularity=granularity),
    ))


def run(fed: Federation, generator) -> None:
    fed.kernel.spawn(generator)
    fed.kernel.run()


@pytest.mark.parametrize("protocol,granularity", CASES)
def test_restart_recovery_path(monkeypatch, protocol, granularity):
    calls: list[str] = []
    spy(monkeypatch, GlobalRecoveryManager, "_resolve_in_doubt", [], result=0)
    for name in ("_redrive_redos", "_redrive_undos"):
        spy(monkeypatch, GlobalRecoveryManager, name, calls)
    fed = build(protocol, granularity)
    run(fed, fed.gtm.recovery.recover_site("s0"))
    expected = []
    if protocol in REDO_REDRIVE:
        expected.append("_redrive_redos")
    if (protocol, granularity) in UNDO_REDRIVE:
        expected.append("_redrive_undos")
    assert calls == expected


@pytest.mark.parametrize("protocol,granularity", CASES)
def test_orphan_reply_path(monkeypatch, protocol, granularity):
    calls: list[str] = []
    spy(monkeypatch, GlobalRecoveryManager, "_terminate_orphan", calls)
    fed = build(protocol, granularity)
    straggler = Message(
        kind="vote", sender="s0", dest=fed.gtm.name, gtxn_id="G-gone",
        payload={"vote": "ready"},
    )
    fed.gtm.recovery.note_orphan_reply(straggler)
    fed.kernel.run()
    terminated = protocol not in NO_ORPHAN_TERMINATION
    assert calls == (["_terminate_orphan"] if terminated else [])


class _Orphan:
    """The slice of a GlobalTransaction orphan adoption reads."""

    gtxn_id = "G-orphan"
    operations: list = []

    def sites(self) -> list[str]:
        return ["s0", "s1"]


@pytest.mark.parametrize("protocol,granularity", CASES)
def test_orphan_adoption_path(monkeypatch, protocol, granularity):
    calls: list[str] = []
    for name in ("_failover_decide", "_failover_before_site", "_failover_undo_actions"):
        spy(monkeypatch, GlobalRecoveryManager, name, calls, result=True)
    fed = build(protocol, granularity)
    run(fed, fed.gtm.recovery.adopt_orphans({"G-orphan": _Orphan()}))
    assert calls == [ADOPTION.get((protocol, granularity), "_failover_decide")]


@pytest.mark.parametrize("protocol,granularity", CASES)
def test_adopted_commit_redrives_redo(monkeypatch, protocol, granularity):
    """Through the decide path, a hardened commit also owes the §3.2
    redo obligations -- only for the running-vote family."""
    calls: list[str] = []
    spy(monkeypatch, GlobalRecoveryManager, "_decide_until_settled", [], result=True)
    spy(monkeypatch, GlobalRecoveryManager, "_redrive_redos", calls)
    compensation = ADOPTION.get((protocol, granularity))
    if compensation is not None:
        # Compensating protocols undo instead of redriving the decision.
        spy(monkeypatch, GlobalRecoveryManager, compensation, [], result=True)
    fed = build(protocol, granularity)
    fed.gtm.decision_log.harden(["G-orphan"], "commit")
    run(fed, fed.gtm.recovery.adopt_orphans({"G-orphan": _Orphan()}))
    redos = ["_redrive_redos"] * len(_Orphan().sites())
    assert calls == (redos if protocol in REDO_REDRIVE else [])


@pytest.mark.parametrize("protocol,granularity", CASES)
def test_coordinator_crash_path(monkeypatch, protocol, granularity):
    calls: list[str] = []
    for name in ("_schedule_takeover", "_start_failover"):
        monkeypatch.setattr(
            CoordinatorPool, name, lambda self, name=name: calls.append(name)
        )
    fed = build(protocol, granularity, coordinators=2)
    fed.pool.crash(1)
    assert calls == (
        ["_schedule_takeover"] if protocol in TAKEOVER else ["_start_failover"]
    )
