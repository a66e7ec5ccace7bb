"""Tests of the benchmark itself: determinism, seeding and output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed  # noqa: E402
from perfbench.checks import full_battery, output_checks  # noqa: E402
from perfbench.workloads import WORKLOADS, build_bank, build_failover, build_mlt  # noqa: E402

SMALL = 200


def figures(inst):
    return inst.tally(), inst.layer_counters()


def driven(build, seed=3, n_txns=SMALL):
    inst = build(seed, n_txns)
    inst.drive()
    return inst


@pytest.fixture(scope="module")
def bank():
    return driven(build_bank)


@pytest.fixture(scope="module")
def mlt():
    return driven(build_mlt, n_txns=400)


@pytest.fixture(scope="module")
def failover():
    return driven(build_failover)


# -- determinism and seeding ---------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_simulated_figures(name):
    first = driven(WORKLOADS[name])
    second = driven(WORKLOADS[name])
    assert figures(first) == figures(second)
    assert first.tally()["committed"] > 0


_FIGURES_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.workloads import WORKLOADS
inst = WORKLOADS[{name!r}](3, {n})
inst.drive()
print(json.dumps([inst.tally(), inst.layer_counters()]))
"""


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_across_processes(name):
    """Fresh interpreters with different string-hash seeds agree exactly."""
    script = _FIGURES_SCRIPT.format(src=str(ROOT / "src"), root=str(ROOT), name=name, n=SMALL)
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        results.append(out.stdout.strip().splitlines()[-1])
    assert results[0] == results[1]
    assert json.loads(results[0]) == json.loads(json.dumps(list(figures(driven(WORKLOADS[name])))))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_other_seed_changes_inputs(name):
    def ops(inst):
        return [
            [(op.kind, op.table, op.key, op.value) for op in batch["operations"]]
            + [batch["intends_abort"]]
            for batch in inst.inputs
        ]

    assert ops(WORKLOADS[name](3, SMALL)) == ops(WORKLOADS[name](3, SMALL))
    assert ops(WORKLOADS[name](3, SMALL)) != ops(WORKLOADS[name](4, SMALL))


# -- the output checks pass on real runs ---------------------------------


def test_checks_pass_on_real_runs(bank, mlt, failover):
    for inst in (bank, mlt, failover):
        assert output_checks(inst) == []
        problems, _known = full_battery(inst)
        assert problems == []


def test_failover_run_crashes_and_recovers(failover):
    assert failover.stall is not None and failover.stall > 0
    dp = failover.federation.dataplane
    assert dp.promotions >= 1 and dp.rejoins >= 1


def test_known_inverse_order_false_positive_is_confirmed(mlt):
    _problems, known = full_battery(mlt)
    assert known > 0


# -- each output check fires on a corrupted state ------------------------


def _fresh(build, **kwargs):
    inst = driven(build, **kwargs)
    assert output_checks(inst) == []
    return inst


def _overwrite(engine, table, key, value):
    """Change the record image that peeks and the checks read."""
    page_id = engine.catalog.heap(table).page_of(key)
    if engine.buffer.resident(page_id):
        engine.buffer._frames[page_id].records[key] = value
    else:
        engine.disk.stable_page(page_id).records[key] = value


def _fires(inst, word):
    problems = output_checks(inst)
    assert any(word in p for p in problems), problems


def test_money_check_fires_on_changed_balance():
    inst = _fresh(build_bank)
    _overwrite(inst.federation.engines["bank_0"], "accounts_0", "acct0_0", 999_999)
    _fires(inst, "money")


def test_atomicity_check_fires_on_lost_commit():
    inst = _fresh(build_bank)
    outcome = next(o for o in inst.served() if o.committed and len(o.sites) == 2)
    outcome.committed = False
    _fires(inst, "atomicity")


def test_lock_release_check_fires_on_held_lock():
    inst = _fresh(build_bank)
    engine = inst.federation.engines["bank_1"]
    txn = engine.begin()
    process = inst.federation.kernel.spawn(engine.write(txn, "accounts_1", "acct1_0", 5))
    inst.federation.run()
    assert process.done
    _fires(inst, "lock_release")


def test_undo_drain_check_fires_on_leftover_undo_record(mlt):
    record = mlt.federation.gtm.undo_log.records
    from repro.mlt.actions import Operation

    mlt.federation.gtm.undo_log.record(
        "T0", "bank_0", Operation("increment", "accounts_0", "acct0_0", 1),
        Operation("increment", "accounts_0", "acct0_0", -1),
    )
    try:
        _fires(mlt, "undo_drain")
    finally:
        record.pop()


def test_accounting_check_fires_on_lost_input():
    inst = _fresh(build_bank)
    inst.outcomes.pop(inst.inputs[0]["name"])
    _fires(inst, "accounting")


def test_accounting_check_fires_on_committed_intended_abort():
    inst = _fresh(build_mlt, n_txns=400)
    batch = next(b for b in inst.inputs if b["intends_abort"])
    inst.outcomes[batch["name"]].committed = True
    _fires(inst, "asked to abort")


def test_accounting_check_fires_on_open_loop_mismatch():
    inst = _fresh(build_failover)
    inst.result.completed -= 1
    _fires(inst, "accounting")


def test_replica_check_fires_on_diverged_replica():
    inst = _fresh(build_failover)
    fed = inst.federation
    partition = fed.dataplane.map.partition(1)
    backup = partition.members[1]
    key = next(iter(fed.dataplane.table_records(backup, partition.local_table)))
    _overwrite(fed.engines[backup], partition.local_table, key, -1)
    _fires(inst, "replica_convergence")


def test_in_doubt_check_fires_on_unresolved_transaction():
    inst = _fresh(build_failover)
    inst.federation.pool._pending_orphans["T0"] = None
    _fires(inst, "orphaned in-doubt")


def test_inverse_order_check_fails_on_genuine_misorder(mlt):
    """A report that stays wrong once the inverse's reads are dropped is a problem."""
    _problems, known = full_battery(mlt)
    history, first, last = next(
        (engine.op_history, group[0], group[-1])
        for engine in mlt.federation.engines.values()
        for group in _inverse_writes(engine).values()
        if group[0][1].key != group[-1][1].key
    )
    history[first[0]], history[last[0]] = last[1], first[1]
    try:
        problems, _known = full_battery(mlt)
        assert any("inverse_order" in p for p in problems), problems
    finally:
        history[first[0]], history[last[0]] = first[1], last[1]
    assert full_battery(mlt) == ([], known)


def _inverse_writes(engine) -> dict[str, list]:
    """Committed inverse writes per inverse transaction: (history index, record)."""
    groups: dict[str, list] = {}
    for index, record in enumerate(engine.op_history):
        if (
            record.gtxn_id and record.gtxn_id.endswith("!undo")
            and record.kind != "read" and not record.table.startswith("_")
            and record.txn_id in engine.committed_txn_ids
        ):
            groups.setdefault(record.gtxn_id, []).append((index, record))
    return groups


# -- host speed ----------------------------------------------------------


def test_host_speed_scales_wall_time_to_the_reference():
    assert hostspeed.at_reference(2.0, hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 2.0
    # The host ran at half the reference speed: the stretch counts half.
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.at_reference(2.0, slow, slow) == pytest.approx(1.0)
    assert hostspeed.sample() > 0


def test_traffic_leaves_out_the_host_samples(bank):
    commits, wall, reference = bank.traffic()
    assert commits == bank.marks[-1][3]
    start, _, _, _ = bank.marks[0]
    stop, _, _, _ = bank.marks[-1]
    samples = sum(resumed - taken for taken, _, resumed, _ in bank.marks[:-1])
    assert wall == pytest.approx(stop - start - samples)
    assert reference > 0


# -- the command ---------------------------------------------------------


def test_command_prints_every_metric_and_exits_zero():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicated-failover",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = {m["name"] for m in spec["end_to_end"]}
    assert names <= set(result["metrics"])
    for name in names:
        assert name in out.stdout.split("{", 1)[0]


def test_command_fails_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank-2pc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
