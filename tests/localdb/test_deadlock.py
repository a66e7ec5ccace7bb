"""Waits-for graph and cycle detection."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.localdb.deadlock import WaitsForGraph


def test_no_cycle_on_chain():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "a", {"b"})
    graph.set_blockers("r2", "b", {"c"})
    assert graph.find_cycle_from("a") is None


def test_two_cycle_detected():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "a", {"b"})
    graph.set_blockers("r2", "b", {"a"})
    cycle = graph.find_cycle_from("a")
    assert cycle is not None
    assert cycle[0] == "a" and cycle[-1] == "a"


def test_long_cycle_detected():
    graph = WaitsForGraph()
    for waiter, blocker in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
        graph.set_blockers(f"r-{waiter}", waiter, {blocker})
    assert graph.find_cycle_from("a") is not None


def test_cycle_not_through_start_ignored():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "b", {"c"})
    graph.set_blockers("r2", "c", {"b"})
    graph.set_blockers("r3", "a", {"b"})
    # a -> b <-> c cycle exists but does not pass through a.
    assert graph.find_cycle_from("a") is None


def test_self_edges_dropped():
    graph = WaitsForGraph()
    graph.set_blockers("r", "a", {"a", "b"})
    assert graph.adjacency() == {"a": {"b"}}


def test_clear_removes_edge():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "a", {"b"})
    graph.set_blockers("r2", "b", {"a"})
    graph.clear("r1", "a")
    assert graph.find_cycle_from("b") is None


def test_clear_txn_removes_all_waits():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "a", {"b"})
    graph.set_blockers("r2", "a", {"c"})
    graph.set_blockers("r3", "b", {"a"})
    graph.clear_txn("a")
    assert graph.adjacency() == {"b": {"a"}}


def test_per_resource_edges_independent():
    graph = WaitsForGraph()
    graph.set_blockers("r1", "a", {"b"})
    graph.set_blockers("r2", "a", {"c"})
    graph.set_blockers("r1", "a", {"d"})  # restate r1's contribution
    assert graph.adjacency()["a"] == {"c", "d"}


def test_empty_blockers_clears_entry():
    graph = WaitsForGraph()
    graph.set_blockers("r", "a", {"b"})
    graph.set_blockers("r", "a", set())
    assert len(graph) == 0


def test_deterministic_cycle_for_same_graph():
    def build():
        graph = WaitsForGraph()
        graph.set_blockers("r1", "a", {"b", "c"})
        graph.set_blockers("r2", "b", {"a"})
        graph.set_blockers("r3", "c", {"a"})
        return graph.find_cycle_from("a")

    assert build() == build()


def recursive_find_cycle(graph: WaitsForGraph, start: str):
    """The recursive DFS ``find_cycle_from`` replaced: the reference order."""
    adjacency = graph.adjacency()
    path: list[str] = []
    on_path: set[str] = set()
    visited: set[str] = set()

    def dfs(node):
        path.append(node)
        on_path.add(node)
        for neighbour in sorted(adjacency.get(node, ())):
            if neighbour == start:
                return path + [start]
            if neighbour in on_path or neighbour in visited:
                continue
            cycle = dfs(neighbour)
            if cycle is not None:
                return cycle
        on_path.discard(node)
        visited.add(node)
        path.pop()
        return None

    return dfs(start)


txn_names = st.sampled_from([f"T{i}" for i in range(8)])


@settings(max_examples=300, deadline=None)
@given(
    edges=st.lists(st.tuples(txn_names, txn_names), max_size=30),
    start=txn_names,
)
def test_iterative_search_matches_recursive_reference(edges, start):
    graph = WaitsForGraph()
    for index, (waiter, blocker) in enumerate(edges):
        graph.set_blockers(f"r{index % 5}", waiter, {blocker})
    assert graph.find_cycle_from(start) == recursive_find_cycle(graph, start)


def test_long_wait_chain_needs_no_recursion():
    # Closing a 3000-transaction chain back to its start used to exceed
    # the interpreter's recursion limit.
    graph = WaitsForGraph()
    chain = ["start"] + [f"T{i}" for i in range(3000)]
    for waiter, blocker in zip(chain, chain[1:] + ["start"]):
        graph.set_blockers(f"r-{waiter}", waiter, {blocker})
    cycle = graph.find_cycle_from("start")
    assert cycle == chain + ["start"]
    assert len(cycle) == 3002
