"""Waits-for graph and cycle detection for the L0 and L1 lock managers."""

from __future__ import annotations

from typing import Hashable, Optional


class WaitsForGraph:
    """Tracks which transaction waits for which, per resource.

    Edges are stored keyed by ``(resource, waiter)`` so that a change to
    one resource's queue can be re-stated atomically without disturbing
    edges contributed by other resources.
    """

    def __init__(self) -> None:
        self._blockers: dict[tuple[Hashable, str], set[str]] = {}

    def set_blockers(self, resource: Hashable, waiter: str, blockers: set[str]) -> None:
        """Declare that ``waiter`` waits for ``blockers`` on ``resource``."""
        blockers = {b for b in blockers if b != waiter}
        if blockers:
            self._blockers[(resource, waiter)] = blockers
        else:
            self._blockers.pop((resource, waiter), None)

    def clear(self, resource: Hashable, waiter: str) -> None:
        """Remove the waiting edge of ``waiter`` on ``resource``."""
        self._blockers.pop((resource, waiter), None)

    def clear_txn(self, txn_id: str) -> None:
        """Remove every edge where ``txn_id`` is the waiter."""
        stale = [key for key in self._blockers if key[1] == txn_id]
        for key in stale:
            del self._blockers[key]

    def adjacency(self) -> dict[str, set[str]]:
        """Aggregate waiter -> blockers adjacency over all resources."""
        adjacency: dict[str, set[str]] = {}
        for (_resource, waiter), blockers in self._blockers.items():
            adjacency.setdefault(waiter, set()).update(blockers)
        return adjacency

    def find_cycle_from(self, start: str) -> Optional[list[str]]:
        """Return a cycle through ``start`` if one exists, else ``None``.

        Iterative DFS: one iterator over each path node's sorted
        neighbours, so a chain of any length needs no recursion and the
        search leaves no reference cycle behind.  Deterministic because
        neighbours are visited in sorted order; the cycle is the path
        from ``start`` plus ``start`` again.
        """
        adjacency = self.adjacency()
        path = [start]
        on_path = {start}
        visited: set[str] = set()
        pending = [iter(sorted(adjacency.get(start, ())))]
        while pending:
            for neighbour in pending[-1]:
                if neighbour == start:
                    path.append(start)
                    return path
                if neighbour in on_path or neighbour in visited:
                    continue
                path.append(neighbour)
                on_path.add(neighbour)
                pending.append(iter(sorted(adjacency.get(neighbour, ()))))
                break
            else:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                visited.add(node)
        return None

    def __len__(self) -> int:
        return len(self._blockers)

    def __repr__(self) -> str:
        return f"<WaitsForGraph edges={len(self._blockers)}>"
