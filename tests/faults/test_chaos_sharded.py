"""Sharded chaos: coordinator crash + failover under full fault load.

Satellite of the coordinator-pool tentpole: the chaos matrix is re-run
with ``coordinators > 1`` and a scheduled mid-run coordinator crash, at
fault rates at or above the top of the EXP-R1 sweep (2x the base
schedule -- the ``fault_level=2.0`` point of ``bench_r1_chaos``).
Every run must keep the invariants and end with **zero orphaned
in-doubt transactions**: the failover peer resolves the crashed
shard's in-flight work from the shared central logs.
"""

import pytest

from repro.faults import CHAOS_PROTOCOLS, ChaosSpec, run_chaos
from tests.faults.test_chaos import assert_chaos_ok

#: Base rates of the default schedule, doubled -- the hardest point of
#: the bench_r1 fault-level sweep.
BASE = ChaosSpec(protocol="2pc")
LEVEL = 2.0


def sharded_spec(protocol: str, granularity: str, seed: int, **over) -> ChaosSpec:
    params = dict(
        protocol=protocol,
        granularity=granularity,
        seed=seed,
        loss_rate=BASE.loss_rate * LEVEL,
        dup_rate=BASE.dup_rate * LEVEL,
        reorder_rate=BASE.reorder_rate * LEVEL,
        crash_rate=BASE.crash_rate * LEVEL,
        partition_count=int(BASE.partition_count * LEVEL),
        erroneous_abort_rate=BASE.erroneous_abort_rate * LEVEL,
        coordinators=3,
        coordinator_crash_at=120.0,
        coordinator_outage=500.0,
    )
    params.update(over)
    return ChaosSpec(**params)


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
@pytest.mark.parametrize("seed", [3, 7])
def test_sharded_chaos_matrix(protocol, granularity, seed):
    result = run_chaos(sharded_spec(protocol, granularity, seed))
    assert_chaos_ok(result)
    # The coordinator crash fired and failover left nothing orphaned.
    assert result.counters["coordinator_crashes"] == 1
    assert result.federation.pool.unresolved_orphans() == []
    assert result.committed + result.aborted <= result.spec.n_txns


@pytest.mark.parametrize(
    "protocol,granularity,seed",
    [
        ("altruistic", "per_action", 5),
        ("altruistic", "per_action", 11),
        ("altruistic", "per_action", 13),
        ("saga", "per_action", 11),
        # Both baselines run per action under a per_site config too.
        ("altruistic", "per_site", 5),
        ("saga", "per_site", 11),
    ],
)
def test_failover_compensates_per_action_baselines(protocol, granularity, seed):
    """Regression: adopting a crashed coordinator's per-action orphan
    must compensate its committed locals, not just redrive a decision.
    Saga is not serializable by design, so only conservation is owed."""
    result = run_chaos(sharded_spec(protocol, granularity, seed))
    assert result.conserved, (result.total_balance, result.expected_balance)


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
def test_sharded_chaos_replays_deterministically(protocol, granularity):
    first = run_chaos(sharded_spec(protocol, granularity, seed=5))
    second = run_chaos(sharded_spec(protocol, granularity, seed=5))
    assert first.committed == second.committed
    assert first.aborted == second.aborted
    assert first.end_time == second.end_time
    assert first.counters == second.counters


def test_coordinator_stays_down_without_restart():
    """No restart scheduled: peers carry the rest of the run alone."""
    result = run_chaos(
        sharded_spec("2pc", "per_site", seed=7, coordinator_outage=0.0)
    )
    assert_chaos_ok(result)
    fed = result.federation
    assert fed.coordinators[1].crashed
    assert result.counters["coordinator_crashes"] == 1
    assert fed.pool.unresolved_orphans() == []


def test_failover_counters_reported():
    result = run_chaos(sharded_spec("2pc", "per_site", seed=3))
    for key in ("coordinator_crashes", "failovers", "failover_resolved"):
        assert key in result.counters
    assert result.counters["failovers"] >= 1
