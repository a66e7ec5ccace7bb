"""Per-package self time and retained memory, measured from outside.

The benchmark attaches ``cProfile`` for one round and ``tracemalloc``
for another, and folds what they record by the package of
``src/repro/`` the code lives in.  Nothing inside the program is
instrumented.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from typing import Callable

#: The packages reported, in the order they are printed.
PACKAGES = (
    "sim", "net", "storage", "localdb", "mlt", "core", "integration",
    "dataplane", "workloads",
)
#: Self time is also reported for interpreter built-ins (C functions).
SELF_TIME_GROUPS = PACKAGES + ("builtins",)


def package_of(filename: str) -> str:
    """The ``src/repro`` package a source file belongs to, or a coarse group."""
    if filename == "~":  # cProfile's name for built-in functions
        return "builtins"
    parts = filename.replace("\\", "/").split("/")
    dirs = parts[:-1]
    if "repro" in dirs:
        below = parts[len(dirs) - dirs[::-1].index("repro"):]
        return below[0] if len(below) > 1 else "repro"
    return "perfbench" if "perfbench" in dirs else "other"


def profile_self_time(run: Callable[[], None]) -> dict[str, float]:
    """Seconds of self time per group while ``run`` executes under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    totals: dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        group = package_of(filename)
        totals[group] = totals.get(group, 0.0) + row[2]  # tottime: own time only
    return totals


def retained_bytes(run: Callable[[], None]) -> dict[str, int]:
    """Bytes allocated while ``run`` executes and still alive when it returns.

    Each block is charged to the source file of the line that allocated it.
    """
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    totals: dict[str, int] = {}
    for stat in snapshot.statistics("filename"):
        group = package_of(stat.traceback[0].filename)
        totals[group] = totals.get(group, 0) + stat.size
    return totals
