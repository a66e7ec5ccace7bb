"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload bank-2pc --seed 1 --seconds 10 --trace 0

A run is made of rounds.  Each round builds a fresh federation (set-up),
drives the generated transactions through it (traffic) and checks its
outputs.  The first rounds use distinct seeds derived from ``--seed``
and their simulated figures are pooled; further rounds, run until
``--seconds`` of traffic have been timed, repeat those seeds and must
reproduce their figures exactly.  The first round warms the process up
and is not timed.  ``commits_per_s`` is the commits of every later round
over their traffic time, and ``setup_s`` the median of at least 15
set-ups.  Both times are taken at the host's reference speed
(``hostspeed.py``), so that other tenants' load on the shared host does
not show as a change of the program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: counters from the first round, self time from one
more round under ``cProfile`` and retained memory from one under
``tracemalloc``.

Every metric is printed by name with its unit; the last line of output
is one JSON object.  The exit code is 1 when an output check fails and
2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is timed at least this many times per run; its median is reported.
SETUP_SAMPLES = 15


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """The rounds of one invocation and what their checks found."""

    def __init__(self, build, seeds: list[int]):
        self.build = build
        self.seeds = seeds
        self.setups: list[float] = []
        self.walls: list[float] = []
        #: ``(commits, wall seconds, seconds at the reference speed)`` of
        #: each timed round.
        self.timed: list[tuple[int, float, float]] = []
        self.problems: list[str] = []
        #: ``(tally, layer counters)`` of the first round with each seed.
        self.parts: dict[int, tuple[dict, dict]] = {}
        self.peak_rss_mb = 0.0
        self.known_fp = 0

    def round(self, part: int, wrap=None):
        """Build, drive and check one round; returns what ``wrap`` returned."""
        inst = self.set_up(part)
        start = time.perf_counter()
        result = wrap(inst.drive) if wrap else inst.drive()
        self.walls.append(time.perf_counter() - start)
        first_round = len(self.walls) == 1
        if first_round:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif wrap is None:
            self.timed.append(inst.traffic())
        self._check(part, inst, first_round)
        return result

    def set_up(self, part: int):
        """Build the round with seed ``part``, timing it at the reference speed."""
        from perfbench import hostspeed

        gc.collect()
        before = hostspeed.sample()
        start = time.perf_counter()
        inst = self.build(self.seeds[part])
        seconds = time.perf_counter() - start
        self.setups.append(hostspeed.at_reference(seconds, before, hostspeed.sample()))
        return inst

    def _check(self, part: int, inst, first_round: bool) -> None:
        from perfbench.checks import full_battery, output_checks

        n = len(self.walls)
        self.problems.extend(f"round {n}: {p}" for p in output_checks(inst))
        figures = (inst.tally(), inst.layer_counters())
        if part not in self.parts:
            self.parts[part] = figures
        elif figures != self.parts[part]:
            self.problems.append(
                f"round {n}: simulated figures differ from an earlier round with its seed"
            )
        if first_round:
            problems, self.known_fp = full_battery(inst)
            self.problems.extend(f"round 1 battery: {p}" for p in problems)

    def timed_rounds(self, seconds: float) -> None:
        """An untimed warm-up round, then rounds until every pooled seed has
        run and ``seconds`` of traffic have been timed."""
        while len(self.walls) < len(self.seeds) or self.traffic_seconds() < seconds:
            self.round(len(self.walls) % len(self.seeds))
        while len(self.setups) < SETUP_SAMPLES:
            self.set_up(len(self.setups) % len(self.seeds))

    def traffic_seconds(self) -> float:
        return sum(wall for _commits, wall, _reference in self.timed)

    def commits_per_s(self) -> tuple[float, float]:
        """Commits per second of timed traffic: at the reference speed, and raw."""
        commits = sum(c for c, _wall, _reference in self.timed)
        reference = sum(r for _commits, _wall, r in self.timed)
        return commits / reference, commits / self.traffic_seconds()


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    from perfbench.workloads import pooled_metrics

    sim = pooled_metrics([tally for tally, _counters in run.parts.values()])
    return {
        "commits_per_s": (run.commits_per_s()[0], "1/s"),
        "p50_resp_sim": (sim["p50_resp_sim"], "u"),
        "p99_resp_sim": (sim["p99_resp_sim"], "u"),
        "commits_per_sim_u": (sim["commits_per_sim_u"], "1/u"),
        "success_frac": (sim["success_frac"], "ratio"),
        "msgs_per_commit": (sim["msgs_per_commit"], "msg/commit"),
        "forces_per_commit": (sim["forces_per_commit"], "force/commit"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(run.setups), "s"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    from perfbench.layers import PACKAGES, SELF_TIME_GROUPS, profile_self_time, retained_bytes

    tally, counters = run.parts[0]
    attempted = tally["attempted"]
    self_time = run.round(0, wrap=profile_self_time)
    overhead = run.walls[-1] / run.walls[0]
    retained = run.round(0, wrap=retained_bytes)

    metrics: dict[str, tuple[float, str]] = {}
    for name, value in counters.items():
        measure = name.split(".", 1)[1]
        unit = "u" if "_sim" in measure else "ratio" if "ratio" in measure else "count"
        metrics[name] = (value, unit)
    for group in SELF_TIME_GROUPS:
        metrics[f"{group}.self_us_per_txn"] = (
            self_time.get(group, 0.0) * 1e6 / attempted, "us"
        )
    for package in PACKAGES:
        metrics[f"mem.{package}.retained_kb_per_txn"] = (
            retained.get(package, 0) / 1024 / attempted, "KB"
        )
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["known.inverse_order_read_fp"] = (run.known_fp, "count")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import POOLED_ROUNDS, WORKLOADS, round_seed

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = [round_seed(args.seed, part) for part in range(POOLED_ROUNDS[args.workload])]
    run = Run(WORKLOADS[args.workload], seeds)
    run.timed_rounds(args.seconds)
    pooled = [tally for tally, _counters in run.parts.values()]
    attempted = sum(t["attempted"] for t in pooled)
    failed = sum(t["failed"] for t in pooled)
    metrics = per_layer(run) if args.trace else end_to_end(run)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(run.walls)} "
          f"(pooled {len(pooled)})  attempted {attempted}  "
          f"committed {sum(t['committed'] for t in pooled)}  failed {failed}  "
          f"p99 samples {sum(len(t['tail_latencies']) for t in pooled)}")
    if run.timed:
        at_reference, raw = run.commits_per_s()
        print(f"  timed traffic {run.traffic_seconds():.2f} s in {len(run.timed)} rounds: "
              f"{raw:.1f} commits per wall-clock second, {at_reference:.1f} at the "
              f"reference speed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  known inverse_order false positives confirmed: {run.known_fp}")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
