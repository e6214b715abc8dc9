"""Generic DAG used by all three computation-graph levels.

The paper's tileable graph, chunk graph, and subtask graph are all DAGs
whose nodes carry an operator and whose edges are data dependencies
(Section III-C). This module provides the shared structure plus the
topological utilities the tiler, optimizer, and scheduler need.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Hashable, Iterable, Iterator, TypeVar

N = TypeVar("N", bound=Hashable)


class DAG(Generic[N]):
    """A directed acyclic graph with O(1) edge insertion and lookup.
    Each node's successors and predecessors are insertion-ordered dicts
    (used as ordered sets), so walks are deterministic."""

    def __init__(self) -> None:
        self._succ: dict[N, dict[N, None]] = {}
        self._pred: dict[N, dict[N, None]] = {}

    # -- construction -------------------------------------------------
    def add_node(self, node: N) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, src: N, dst: N) -> None:
        """Add a dependency edge ``src -> dst``; inserts missing nodes.

        Parallel edges are collapsed (a chunk consumed twice by one
        operator still constitutes a single dependency).
        """
        self.add_node(src)
        self.add_node(dst)
        self._succ[src][dst] = None
        self._pred[dst][src] = None

    # -- queries ------------------------------------------------------
    def __contains__(self, node: N) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[N]:
        return iter(self._succ)

    def successors(self, node: N) -> list[N]:
        return list(self._succ[node])

    def predecessors(self, node: N) -> list[N]:
        return list(self._pred[node])

    def in_degree(self, node: N) -> int:
        return len(self._pred[node])

    def out_degree(self, node: N) -> int:
        return len(self._succ[node])

    # -- traversal ----------------------------------------------------
    def topological_order(self) -> list[N]:
        """Kahn's algorithm; raises ``ValueError`` on a cycle.

        Insertion order is used to break ties so tiling and scheduling
        are deterministic run to run.
        """
        in_deg = {n: len(self._pred[n]) for n in self._succ}
        queue = deque(n for n in self._succ if in_deg[n] == 0)
        order: list[N] = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for s in self._succ[n]:
                in_deg[s] -= 1
                if in_deg[s] == 0:
                    queue.append(s)
        if len(order) != len(self._succ):
            raise ValueError("graph contains a cycle")
        return order

    def reverse_topological_order(self) -> list[N]:
        return list(reversed(self.topological_order()))

    def subgraph(self, nodes: Iterable[N]) -> "DAG[N]":
        """The subgraph induced by ``nodes``, walked in the caller's order
        (not a set's), so tie-breaks never depend on the hash seed."""
        keep = dict.fromkeys(nodes)
        g: DAG[N] = DAG()
        for n in keep:
            g.add_node(n)
            for s in self._succ[n]:
                if s in keep:
                    g.add_edge(n, s)
        return g


def build_dag(targets: Iterable[N],
              done: Callable[[N], bool] = lambda n: False) -> DAG[N]:
    """The DAG of ``targets`` and everything upstream of them, with an
    edge from each of a node's ``inputs`` to it: the tileable graph of
    some tileables, or the chunk graph of some chunks. Nodes are told
    apart by ``key``. The walk stops at a node for which ``done`` holds:
    it is in the DAG, but its inputs are not (an already-tiled tileable,
    a stored chunk)."""
    dag: DAG[N] = DAG()
    stack = list(targets)
    seen: set[str] = set()
    while stack:
        n = stack.pop()
        if n.key in seen:
            continue
        seen.add(n.key)
        dag.add_node(n)
        if done(n):
            continue
        for inp in n.inputs:
            dag.add_edge(inp, n)
            stack.append(inp)
    return dag
