"""The benchmark's three workloads.

Each workload builds a fresh federation from the seed, generates its
inputs from the same seed, and drives them through the simulator.  The
program under test receives only the generated transactions; the seed
reaches it only as the federation's own RNG seed.

* ``bank-2pc`` -- closed loop, 2PC per site.  Only the commit path works:
  ``sim``, ``integration``, ``net``, ``core`` and ``localdb``.  ``mlt``,
  ``dataplane``, batching and recovery are bypassed.
* ``mlt-before`` -- closed loop, the paper's commit-before per action on
  hot accounts with intended aborts: L1 semantic locks, L0 lock waits and
  inverse transactions do the work.
* ``replicated-failover`` -- open loop over a replicated, hash-partitioned
  table with two coordinators, reliable transport and adaptive batching;
  one partition primary crashes and restarts mid-traffic.
"""

from __future__ import annotations

import random
import time
from typing import Any, Optional

from perfbench import hostspeed
from repro.core.global_txn import GlobalOutcome
from repro.core.gtm import GTMConfig
from repro.dataplane import PlacementSpec
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import Operation
from repro.workloads.banking import account_table, balance_audit, transfer
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.open_loop import OpenLoopDriver, OpenLoopSpec

BANKS = 4
ACCOUNTS_PER_BANK = 64
INITIAL_BALANCE = 1000
CLIENTS = 8

#: The wall clock and the host's speed are sampled once per this many
#: completed inputs: short enough (about 0.1 s) to follow the host's
#: speed as other tenants' load comes and goes.
BLOCK = 50
#: Transactions per round.  The p99 needs at least 1000 completions.
BANK_TXNS = 3000
MLT_TXNS = 3000
FAILOVER_TXNS = 2000

FAILOVER_SITES = 8
#: Keys are Zipf-skewed within one block per site, and inputs cycle the
#: blocks.  One global Zipf over all keys puts the hottest key's lock
#: near saturation at this rate, and the run then measures that one lock
#: chain's timeouts instead of the data plane.
KEYS_PER_BLOCK = 16
#: Below saturation: at 0.4 arrivals/u the batched configuration builds
#: a backlog, which would make the run measure queue growth instead.
FAILOVER_RATE = 0.2
#: In-flight inputs each coordinator admits.  The 1-12 inputs per round
#: that reach the crashed primary before its eviction wait for its
#: restart; with OpenLoopDriver's default of 8 they sometimes fill both
#: windows, every later arrival queues until the restart, and the p99
#: swings between 50u and 390u from seed to seed.
WINDOW_PER_COORDINATOR = 32
#: Crash and restart instants, as shares of the expected arrival span.
CRASH_AT_SHARE = 0.3
RESTART_AT_SHARE = 0.5
#: From the crash on, a probe writes the crashed partition this often
#: until one write commits.  Workload writers reach one partition only
#: every ~35u, so their arrival gap alone would swing the stall by more
#: than the failover itself takes.
PROBE_INTERVAL = 2.0
PROBE_KEYS = 256


def quantile(ordered: list[float], q: float) -> float:
    """The repository's nearest-rank quantile over a sorted list."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def base_id(gtxn_id: str) -> str:
    """The input name of a transaction attempt (``T7~r2`` -> ``T7``)."""
    return gtxn_id.split("~", 1)[0]


def _inputs_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _batch(index: int, operations: list[Operation], intends_abort: bool) -> dict:
    return {"operations": operations, "name": f"T{index}", "intends_abort": intends_abort}


class Instance:
    """One round of one workload: a federation, its inputs, its results."""

    name = ""

    def __init__(self, federation: Federation, inputs: list[dict]):
        self.federation = federation
        self.inputs = inputs
        #: Final result of every input, keyed by input name.
        self.outcomes: dict[str, Any] = {}
        self.shed = 0
        self.queue_wait_p99 = 0.0
        #: Simulated time from a crash to the first commit writing the
        #: crashed partition; ``None`` where nothing crashes.
        self.stall: Optional[float] = None
        #: ``(wall clock, host speed sample, wall clock after it, commits
        #: so far)`` at the start of the traffic and after every BLOCK
        #: completed inputs.
        self.marks: list[tuple[float, float, float, int]] = []
        self._completed = 0
        self._commits = 0

    def _note(self, outcome: Any) -> None:
        """Count one completed input; mark the wall clock every BLOCK."""
        self._completed += 1
        self._commits += isinstance(outcome, GlobalOutcome) and outcome.committed
        if self._completed % BLOCK == 0:
            self._mark()

    def _mark(self) -> None:
        """Sample the host's speed; the sample's own time is not traffic."""
        start = time.perf_counter()
        speed = hostspeed.sample()
        self.marks.append((start, speed, time.perf_counter(), self._commits))

    def traffic(self) -> tuple[int, float, float]:
        """Commits, wall seconds and seconds at the reference speed of the
        traffic between the first and the last mark."""
        commits = self.marks[-1][3] - self.marks[0][3] if self.marks else 0
        wall = reference = 0.0
        for (_, before, resumed, _), (stopped, after, _, _) in zip(self.marks, self.marks[1:]):
            wall += stopped - resumed
            reference += hostspeed.at_reference(stopped - resumed, before, after)
        return commits, wall, reference

    # -- traffic ---------------------------------------------------------

    def drive(self) -> None:
        """Closed loop: each client submits the next input when its last ends."""
        fed = self.federation
        pending = iter(self.inputs)
        outcomes = self.outcomes

        def client():
            for batch in pending:
                outcome = yield fed.submit(
                    batch["operations"],
                    name=batch["name"],
                    intends_abort=batch["intends_abort"],
                )
                outcomes[batch["name"]] = outcome
                self._note(outcome)

        self._mark()
        for index in range(CLIENTS):
            fed.kernel.spawn(client(), name=f"client-{index}")
        fed.run()

    # -- results ---------------------------------------------------------

    def served(self) -> list[GlobalOutcome]:
        return [o for o in self.outcomes.values() if isinstance(o, GlobalOutcome)]

    def committed(self) -> int:
        return sum(1 for o in self.served() if o.committed)

    def failed(self) -> int:
        """Inputs that did not end as asked: unrequested aborts, shed, interrupted."""
        ok = 0
        for batch in self.inputs:
            outcome = self.outcomes.get(batch["name"])
            if isinstance(outcome, GlobalOutcome) and outcome.committed != batch["intends_abort"]:
                ok += 1
        return len(self.inputs) - ok

    def latencies(self) -> list[float]:
        """Sorted simulated response times the percentiles are taken over."""
        return sorted(o.response_time for o in self.served() if o.committed)

    def sim_span(self) -> float:
        """Simulated time from the first submission to the last completion."""
        return max(o.finish_time for o in self.served())

    def forces(self) -> int:
        """Forced log writes: every site's log plus the central decision log."""
        fed = self.federation
        local = sum(e.disk.log_forces for e in fed.engines.values())
        return local + fed.pool.metrics()["decision_forces"]

    def tail_latencies(self) -> list[float]:
        """Sorted simulated response times the p99 is taken over."""
        return self.latencies()

    def tally(self) -> dict[str, Any]:
        """What one round adds to a run's simulated figures; repeats for a seed."""
        fed = self.federation
        return {
            "attempted": len(self.inputs),
            "committed": self.committed(),
            "failed": self.failed(),
            "span": self.sim_span(),
            "events": fed.kernel.events_dispatched,
            "messages": fed.network.sent,
            "forces": self.forces(),
            "latencies": self.latencies(),
            "tail_latencies": self.tail_latencies(),
        }

    def layer_counters(self) -> dict[str, float]:
        """Per-layer work and wait counters, read from outside each package."""
        fed = self.federation
        engines = list(fed.engines.values())
        committed = max(1, self.committed())
        attempted = len(self.inputs)
        gtm = fed.pool.metrics()
        net = fed.network
        hits = sum(e.buffer.hits for e in engines)
        misses = sum(e.buffer.misses for e in engines)
        dp = fed.dataplane
        return {
            "sim.events_per_txn": fed.kernel.events_dispatched / attempted,
            "sim.trace_records_per_txn": len(fed.kernel.trace.records) / attempted,
            "localdb.lock_wait_sim_per_commit":
                sum(e.locks.total_wait_time for e in engines) / committed,
            "localdb.x_hold_sim_per_commit":
                sum(e.locks.total_exclusive_hold_time for e in engines) / committed,
            "localdb.deadlocks": sum(e.locks.deadlocks for e in engines),
            "mlt.l1_waits_per_commit": gtm["l1_waits"] / committed,
            "mlt.l1_wait_sim_per_commit": gtm["l1_wait_time"] / committed,
            "mlt.l1_deadlocks": gtm["l1_deadlocks"],
            "storage.log_records_per_commit":
                sum(e.log.appended for e in engines) / committed,
            "storage.buffer_hit_ratio": hits / (hits + misses),
            "core.decision_forces_per_commit": gtm["decision_forces"] / committed,
            "core.undo_executions": gtm["undo_executions"],
            "core.redo_executions": gtm["redo_executions"],
            "core.retries_per_commit":
                sum(o.attempts - 1 for o in self.served()) / committed,
            "core.decisions_per_group": (
                gtm["decisions_grouped"] / gtm["decision_groups"]
                if gtm["decision_groups"] else 0.0
            ),
            "net.envelopes_per_commit": net.envelopes / committed,
            "net.msgs_per_envelope": net.sent / net.envelopes,
            "net.retransmissions": net.retransmissions,
            "net.duplicates_suppressed": net.duplicates_suppressed,
            "integration.duplicate_requests":
                sum(c.duplicate_requests for c in fed.comms.values()),
            "dataplane.routed_writes_per_commit":
                dp.routed_writes / committed if dp is not None else 0.0,
            "dataplane.promotions": dp.promotions if dp is not None else 0,
            "dataplane.stale_rejections": dp.stale_rejections if dp is not None else 0,
            "dataplane.failover_stall_sim": self.stall or 0.0,
            "workloads.queue_wait_p99_sim": self.queue_wait_p99,
            "workloads.shed": self.shed,
        }


class BankInstance(Instance):
    name = "bank-2pc"


class MltInstance(Instance):
    name = "mlt-before"


class _RecordingDriver(OpenLoopDriver):
    """The open-loop driver, also keeping queue waits and completions."""

    def __init__(self, inst: "FailoverInstance", spec: OpenLoopSpec):
        super().__init__(inst.federation, spec)
        self.inst = inst
        self.queue_waits: list[float] = []

    def _submit(self, arrival, operations, name, intends_abort) -> None:
        self.queue_waits.append(self.federation.kernel.now - arrival)
        super()._submit(arrival, operations, name, intends_abort)

    def _watch(self, process, arrival, submitted):
        yield from super()._watch(process, arrival, submitted)
        self.inst._note(process.exception or process.value)


class FailoverInstance(Instance):
    """Open loop: arrivals come on a Poisson schedule whatever the backlog."""

    name = "replicated-failover"

    def __init__(self, federation: Federation, inputs: list[dict], probe_keys: list[str]):
        super().__init__(federation, inputs)
        self.victim_partition = federation.dataplane.map.partition(0)
        self.victim = self.victim_partition.primary
        span = len(inputs) / FAILOVER_RATE
        self.crash_at = CRASH_AT_SHARE * span
        self.restart_at = RESTART_AT_SHARE * span
        self.probe_keys = probe_keys
        self.result = None

    def drive(self) -> None:
        fed = self.federation
        fed.crash_site(self.victim, at=self.crash_at)
        fed.restart_site(self.victim, at=self.restart_at)
        fed.kernel.spawn(self._probe(), name="failover-probe")
        driver = _RecordingDriver(
            self,
            OpenLoopSpec(
                arrival_rate=FAILOVER_RATE,
                n_txns=len(self.inputs),
                window_per_coordinator=WINDOW_PER_COORDINATOR,
            ),
        )
        self._mark()
        self.result = driver.run(self.inputs)
        fed.run()  # drain recovery, rejoin and retransmission stragglers
        names = {batch["name"] for batch in self.inputs}
        self.outcomes = {
            base_id(o.gtxn_id): o for o in fed.pool.outcomes() if base_id(o.gtxn_id) in names
        }
        self.shed = self.result.shed
        self.queue_wait_p99 = quantile(sorted(driver.queue_waits), 0.99)

    def _probe(self):
        """Write the crashed partition every PROBE_INTERVAL until a write commits."""
        fed = self.federation
        yield self.crash_at  # scheduled after the crash, so it runs second

        def done(process) -> None:
            outcome = None if process.exception else process.value
            if isinstance(outcome, GlobalOutcome) and outcome.committed and self.stall is None:
                self.stall = fed.kernel.now - self.crash_at

        for index, key in enumerate(self.probe_keys):
            if self.stall is not None:
                return
            process = fed.submit([Operation("increment", "acct", key, 1)], name=f"P{index}")
            process.add_callback(done)
            yield PROBE_INTERVAL

    def latencies(self) -> list[float]:
        # Arrival to completion, so queueing under a stall counts.
        return sorted(self.result.response_times)

    def tail_latencies(self) -> list[float]:
        # The p99 counts every served arrival, aborted ones too, with
        # shed arrivals censored above them all (OpenLoopDriver's
        # ``p99_admitted_or_shed``).  The queue is unbounded, so nothing
        # is shed and the served latencies are the whole sample.
        return sorted(self.result.served_latencies)

    def sim_span(self) -> float:
        return self.result.makespan


def _bank_federation(seed: int, protocol: str, granularity: str) -> Federation:
    specs = [
        SiteSpec(
            f"bank_{i}",
            tables={
                account_table(i): {
                    f"acct{i}_{j}": INITIAL_BALANCE for j in range(ACCOUNTS_PER_BANK)
                }
            },
            preparable=protocol == "2pc",
        )
        for i in range(BANKS)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed, gtm=GTMConfig(protocol=protocol, granularity=granularity)
        ),
    )


def build_bank(seed: int, n_txns: int = BANK_TXNS) -> BankInstance:
    """2PC per site; 80% cross-site transfers, 20% 4-account audits."""
    rng = _inputs_rng(BankInstance.name, seed)
    inputs = []
    for index in range(n_txns):
        if rng.random() < 0.8:
            operations = transfer(rng, BANKS, ACCOUNTS_PER_BANK)
        else:
            operations = balance_audit(BANKS, ACCOUNTS_PER_BANK, sample=4, rng=rng)
        inputs.append(_batch(index, operations, False))
    return BankInstance(_bank_federation(seed, "2pc", "per_site"), inputs)


def mlt_objects() -> list[tuple[str, str]]:
    """Every account, interleaved across banks so the hot set spans all four."""
    return [
        (account_table(bank), f"acct{bank}_{j}")
        for j in range(ACCOUNTS_PER_BANK)
        for bank in range(BANKS)
    ]


def build_mlt(seed: int, n_txns: int = MLT_TXNS) -> MltInstance:
    """Commit-before per action; half the ops on 8 hot accounts, 10% aborts."""
    rng = _inputs_rng(MltInstance.name, seed)
    generator = WorkloadGenerator(
        WorkloadSpec(
            ops_per_txn=4,
            read_fraction=0.3,
            increment_fraction=0.5,
            hotspot_fraction=0.5,
            hot_object_count=8,
            intended_abort_rate=0.1,
        ),
        mlt_objects(),
    )
    inputs = [_batch(index, *generator.next_transaction(rng)) for index in range(n_txns)]
    return MltInstance(_bank_federation(seed, "before", "per_action"), inputs)


def build_failover(seed: int, n_txns: int = FAILOVER_TXNS) -> FailoverInstance:
    """8 sites, replication 2, 2 coordinators, reliable transport, batching."""
    placement = PlacementSpec(
        table="acct",
        partitions=FAILOVER_SITES,
        replication=2,
        rows={f"k{j}": 100 for j in range(KEYS_PER_BLOCK * FAILOVER_SITES)},
        buckets=64,
    )
    # Probe keys live beside the workload's keys, in the partition that
    # loses its primary; one per probe, so a probe stuck behind the
    # crashed site holds no lock a later probe needs.
    partitioner = placement.make_partitioner()
    candidates = (f"probe{j}" for j in range(PROBE_KEYS * FAILOVER_SITES * 4))
    probe_keys = [k for k in candidates if partitioner.partition_of(k) == 0][:PROBE_KEYS]
    placement.rows.update({key: 0 for key in probe_keys})
    federation = Federation(
        [SiteSpec(f"s{i}", preparable=True) for i in range(FAILOVER_SITES)],
        FederationConfig(
            seed=seed,
            coordinators=2,
            reliable=True,
            batch_window=1.0,
            batch_policy="adaptive",
            batch_max_msgs=8,
            placement=[placement],
            gtm=GTMConfig(
                protocol="2pc",
                granularity="per_site",
                pipeline_window=1.0,
                pipeline_policy="adaptive",
                pipeline_max_group=8,
            ),
        ),
    )
    rng = _inputs_rng(FailoverInstance.name, seed)
    spec = WorkloadSpec(ops_per_txn=2, read_fraction=0.4, increment_fraction=0.6, zipf_s=0.8)
    generators = [
        WorkloadGenerator(
            spec,
            [("acct", f"k{j}")
             for j in range(block * KEYS_PER_BLOCK, (block + 1) * KEYS_PER_BLOCK)],
        )
        for block in range(FAILOVER_SITES)
    ]
    inputs = [
        _batch(index, *generators[index % FAILOVER_SITES].next_transaction(rng))
        for index in range(n_txns)
    ]
    return FailoverInstance(federation, inputs, probe_keys)


WORKLOADS = {
    BankInstance.name: build_bank,
    MltInstance.name: build_mlt,
    FailoverInstance.name: build_failover,
}

#: Rounds with distinct seeds whose simulated figures a run pools.  One
#: round's p99 rests on its 30 slowest transactions, and which rare
#: retries land there swings it by more than a tenth from seed to seed.
POOLED_ROUNDS = {
    BankInstance.name: 4,
    MltInstance.name: 3,
    FailoverInstance.name: 4,
}


def round_seed(seed: int, part: int) -> int:
    """The seed of pooled round ``part`` of a run with ``seed``."""
    return seed * 100 + part


def pooled_metrics(tallies: list[dict[str, Any]]) -> dict[str, float]:
    """The simulated end-to-end figures of the pooled rounds."""
    def total(key: str):
        return sum(t[key] for t in tallies)

    committed = total("committed")
    return {
        "p50_resp_sim": quantile(sorted(x for t in tallies for x in t["latencies"]), 0.50),
        "p99_resp_sim": quantile(sorted(x for t in tallies for x in t["tail_latencies"]), 0.99),
        "commits_per_sim_u": committed / total("span"),
        "success_frac": 1.0 - total("failed") / total("attempted"),
        "msgs_per_commit": total("messages") / committed,
        "forces_per_commit": total("forces") / committed,
    }
