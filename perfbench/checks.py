"""Output checks, run after the timed traffic of every round.

``output_checks`` is linear in the run and runs on every round.  The
full ``check_invariants`` battery adds the serializability check, which
costs seconds per thousand transactions, so it runs once per invocation.
"""

from __future__ import annotations

from repro.core.invariants import (
    atomicity_report,
    check_invariants,
    convergence_violations,
    lock_release_violations,
    redo_drain_violations,
    replica_convergence_violations,
    undo_drain_violations,
)
from repro.workloads.banking import total_balance

from perfbench.workloads import (
    ACCOUNTS_PER_BANK,
    BANKS,
    INITIAL_BALANCE,
    BankInstance,
    FailoverInstance,
    Instance,
    base_id,
)


def output_checks(inst: Instance) -> list[str]:
    """Every problem the linear-time checks find; empty when the run is correct."""
    fed = inst.federation
    problems = [
        f"atomicity: {v.kind} {v.gtxn_id}@{v.site} ({v.detail})"
        for v in atomicity_report(fed).violations
    ]
    for violations in (
        lock_release_violations(fed),
        redo_drain_violations(fed),
        undo_drain_violations(fed),
        convergence_violations(fed),
        replica_convergence_violations(fed),
    ):
        problems.extend(str(v) for v in violations)
    if isinstance(inst, BankInstance):
        total = total_balance(fed, BANKS, ACCOUNTS_PER_BANK)
        expected = BANKS * ACCOUNTS_PER_BANK * INITIAL_BALANCE
        if total != expected:
            problems.append(f"money: total balance {total}, expected {expected}")
    problems.extend(_accounting_problems(inst))
    return problems


def _accounting_problems(inst: Instance) -> list[str]:
    """Every input ends exactly once: completed + shed = submitted."""
    problems = []
    if isinstance(inst, FailoverInstance):
        result = inst.result
        if result.completed + result.shed != len(inst.inputs):
            problems.append(
                f"accounting: {result.completed} completed + {result.shed} shed "
                f"!= {len(inst.inputs)} submitted"
            )
        if inst.stall is None:
            problems.append("failover: no write to the crashed partition committed")
    elif len(inst.outcomes) != len(inst.inputs):
        problems.append(
            f"accounting: {len(inst.outcomes)} completed != {len(inst.inputs)} submitted"
        )
    for batch in inst.inputs:
        outcome = inst.outcomes.get(batch["name"])
        if batch["intends_abort"] and getattr(outcome, "committed", False):
            problems.append(f"accounting: {batch['name']} asked to abort but committed")
    return problems


def inverse_read_orders(fed) -> set[tuple[str, str]]:
    """(transaction, site) pairs whose undo ran in exact reverse order.

    Mirrors ``inverse_order_violations`` with one change: the reads an
    inverse transaction makes (undoing a ``write`` reads the current
    value first) are dropped, as the audit already drops forward reads.
    """
    forward: dict[tuple[str, str], list] = {}
    inverse: dict[tuple[str, str], list] = {}
    for site, engine in fed.engines.items():
        for record in engine.op_history:
            if record.txn_id not in engine.committed_txn_ids or not record.gtxn_id:
                continue
            if record.table.startswith("_") or record.kind == "read":
                continue
            if record.gtxn_id.endswith("!undo"):
                key = (base_id(record.gtxn_id[: -len("!undo")]), site)
                inverse.setdefault(key, []).append((record.table, record.key))
            else:
                key = (base_id(record.gtxn_id), site)
                forward.setdefault(key, []).append((record.table, record.key))
    return {
        key
        for key, undone in inverse.items()
        if undone == list(reversed(forward.get(key, [])[: len(undone)]))
    }


def full_battery(inst: Instance) -> tuple[list[str], int]:
    """Problems from the whole invariant battery, and the confirmed known defects.

    ``inverse_order_violations`` counts the inverse's own reads, so a
    correct undo order ``[k3, k15]`` is reported as ``[k3, k3, k15]``.
    A report counts as that known false positive only when the order
    matches exactly once those reads are dropped; any other report is a
    problem.
    """
    fed = inst.federation
    problems = []
    known = 0
    confirmed = None
    for violation in check_invariants(fed):
        if violation.invariant == "inverse_order":
            if confirmed is None:
                confirmed = inverse_read_orders(fed)
            gtxn, site = violation.detail.split(":", 1)[0].rsplit("@", 1)
            if (gtxn, site) in confirmed:
                known += 1
                continue
        problems.append(str(violation))
    return problems, known
