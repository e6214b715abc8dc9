"""Graph-level fusion by coloring + operator-level fusion (paper § V-A).

Graph-level fusion assigns a color to every chunk-graph node in three
steps (paper Fig. 7):

1. initial (in-degree-0) nodes get distinct colors;
2. forward topological propagation — a node whose predecessors all share
   one color inherits it, otherwise it gets a new color;
3. a separation pass in forward topological order — when a node's
   successors mix its own color with others, the same-colored successors
   are given fresh colors, which then propagate along their same-colored
   chains.

Nodes sharing a color (and connected through same-color edges) merge
into one subtask. Shuffle edges never fuse: a ``ShuffleReduce`` sets
``no_fuse_in`` and a ``ShuffleMap`` sets ``no_fuse_out``, which step 2
treats as a forced color break (a shuffle is an all-to-all; fusing across it
would serialise the exchange into one task).

Operator-level fusion then collapses maximal chains of *elementwise*
chunk ops inside a subtask into one :class:`FusedElementwise` kernel so
intermediates never touch the execution context (the paper uses
numexpr/JAX; those are unavailable offline, so we fuse by composing the
kernels into a single call — same effect: no per-op materialisation).
"""
from __future__ import annotations

import itertools
from typing import Any

from .chunk import ChunkNode
from .graph import DAG
from .operators.base import Operator


def color_graph(dag: DAG[ChunkNode]) -> dict[ChunkNode, int]:
    """Run the paper's three-step coloring; returns node → color."""
    counter = itertools.count()
    color: dict[ChunkNode, int] = {}
    order = dag.topological_order()

    # step 1 + 2: initial colors, then forward propagation
    for node in order:
        preds = dag.predecessors(node)
        if not preds:
            color[node] = next(counter)
            continue
        barrier = getattr(node.op, "no_fuse_in", False) or any(
            getattr(p.op, "no_fuse_out", False) for p in preds
        )
        pred_colors = {color[p] for p in preds}
        if not barrier and len(pred_colors) == 1:
            color[node] = pred_colors.pop()
        else:
            color[node] = next(counter)

    # step 3: separate successors that share the node's color when the
    # node also has differently-colored successors (fan-out split)
    for node in order:
        succs = dag.successors(node)
        same = [s for s in succs if color[s] == color[node]]
        diff = [s for s in succs if color[s] != color[node]]
        if not same or not diff:
            continue
        for s in same:
            old = color[s]
            new = next(counter)
            _repaint_chain(dag, s, old, new, color)
    return color


def _repaint_chain(dag, start, old: int, new: int, color) -> None:
    """Recolor ``start`` and its same-color descendants from old → new."""
    stack = [start]
    while stack:
        n = stack.pop()
        if color[n] != old:
            continue
        color[n] = new
        stack.extend(s for s in dag.successors(n) if color[s] == old)


def fusion_groups(dag: DAG[ChunkNode]) -> list[list[ChunkNode]]:
    """Color the graph and return connected same-color groups, each in
    topological order — the members of one subtask."""
    color = color_graph(dag)
    # union-find over same-color edges so two disconnected components
    # that happen to share a color stay separate subtasks
    parent: dict[ChunkNode, ChunkNode] = {n: n for n in dag.nodes()}

    def find(x):
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    for n in dag.nodes():
        for s in dag.successors(n):
            if color[n] == color[s]:
                union(n, s)
    groups: dict[ChunkNode, list[ChunkNode]] = {}
    for n in dag.topological_order():
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


class FusedElementwise(Operator):
    """A chain of elementwise chunk kernels composed into one call."""

    elementwise = True

    def __init__(self, ops: list[Operator]) -> None:
        self.ops = ops

    def execute_chunk(self, inputs: list[Any], chunk: ChunkNode) -> Any:
        """Run the chain in one pass: the head sees the external inputs,
        every later op sees only the running value."""
        value = self.ops[0].execute_chunk(inputs, None)
        for op in self.ops[1:]:
            value = op.execute_chunk([value], None)
        return value


def fuse_elementwise_chains(group: list[ChunkNode], dag: DAG[ChunkNode]) -> list[ChunkNode]:
    """Operator-level fusion inside one subtask group.

    Finds maximal chains ``a -> b -> c`` of elementwise nodes where each
    link is the sole in-group successor/predecessor, and replaces them
    with a single node carrying a :class:`FusedElementwise`. Returns the
    new topo-ordered node list; fused-away nodes are dropped and the
    chain's tail node is re-pointed at the head's inputs.
    """
    in_group = set(group)
    chains: list[list[ChunkNode]] = []
    used: set[str] = set()
    for node in group:
        if node.key in used or not getattr(node.op, "elementwise", False):
            continue
        def _links_to(pred: ChunkNode, succ: ChunkNode) -> bool:
            """succ can be appended to a chain ending at pred."""
            return (
                getattr(succ.op, "elementwise", False)
                and len(succ.inputs) == 1
                and succ.inputs[0] is pred
                and dag.out_degree(pred) == 1  # pred feeds nothing else
            )

        preds = [p for p in dag.predecessors(node) if p in in_group]
        is_mid = (
            len(preds) == 1
            and getattr(preds[0].op, "elementwise", False)
            and _links_to(preds[0], node)
        )
        if is_mid:
            continue  # will be picked up by its chain head
        chain = [node]
        cur = node
        while True:
            succs = [s for s in dag.successors(cur) if s in in_group]
            if len(succs) == 1 and _links_to(cur, succs[0]):
                cur = succs[0]
                chain.append(cur)
            else:
                break
        if len(chain) > 1:
            chains.append(chain)
            used.update(c.key for c in chain)
    if not chains:
        return group

    replaced: dict[str, ChunkNode] = {}
    dropped: set[str] = set()
    for chain in chains:
        head, tail = chain[0], chain[-1]
        fused = ChunkNode(
            op=FusedElementwise([c.op for c in chain]),
            inputs=list(head.inputs),
            index=tail.index,
            key=tail.key,  # keep the tail's key: downstream consumers ref it
            meta=tail.meta,
        )
        replaced[tail.key] = fused
        dropped.update(c.key for c in chain[:-1])
    out: list[ChunkNode] = []
    for node in group:
        if node.key in dropped:
            continue
        out.append(replaced.get(node.key, node))
    return out

