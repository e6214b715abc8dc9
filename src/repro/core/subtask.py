"""Subtask graph — the fine-grained physical plan (paper Section III-C).

A subtask is a fused subgraph of the chunk graph (graph-level fusion,
Section V-A) placed on a band (Section V-B). The same object is what a
worker runs: it pickles to its members' ops and keys, never to the
chunk graph upstream of it.
"""
from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .chunk import ChunkNode, new_key
from .config import EngineConfig
from .fusion import fuse_elementwise_chains, fusion_groups
from .graph import DAG
from .operators.base import ShuffleReduce


class TaskChunk(NamedTuple):
    """One member chunk as a worker sees it: its key, its op and its
    inputs' keys. Unlike a :class:`ChunkNode` it holds no upstream nodes
    or metadata, so pickling it never reaches back into the chunk graph."""

    key: str
    op: Any
    input_keys: tuple


class Subtask:
    """One schedulable unit: topo-ordered member chunks as
    :class:`TaskChunk`s, the keys of its external inputs, and the bucket
    ``reducer`` it reads from each shuffle input. Source chunks fused
    into it still carry their data in their op; ``source_nbytes`` is the
    sum of their tile-time size hints, the part of its input that
    arrives inside its ops. The scheduler sets ``band``; the executor
    sets ``store_keys``, the outputs to keep, for the wave that runs it."""

    def __init__(self, chunks: list[ChunkNode]) -> None:
        self.key = new_key("s")
        self.chunks = [TaskChunk(c.key, c.op, tuple(i.key for i in c.inputs))
                       for c in chunks]
        members = {c.key for c in self.chunks}
        self.input_keys = list(dict.fromkeys(
            k for c in self.chunks for k in c.input_keys if k not in members))
        self.source_nbytes = sum(c.meta.nbytes or 0 for c in chunks if not c.inputs)
        # reducers never fuse in, so a subtask holds at most one
        self.reducer = next((c.op.reducer for c in self.chunks
                             if isinstance(c.op, ShuffleReduce)), None)
        self.band: Optional[str] = None
        self.store_keys: list[str] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Subtask {self.key} n={len(self.chunks)} band={self.band}>"


def build_subtask_graph(
    chunk_dag: DAG[ChunkNode], cfg: EngineConfig
) -> tuple[DAG[Subtask], list[Subtask]]:
    """Fuse the chunk graph into subtasks and build their dependency DAG.

    With ``cfg.graph_fusion`` off (ablation), every chunk becomes its
    own subtask. With ``cfg.operator_fusion`` on, elementwise chains
    inside each subtask are additionally collapsed into single fused
    kernels.
    """
    if cfg.graph_fusion:
        groups = fusion_groups(chunk_dag)
    else:
        groups = [[c] for c in chunk_dag.topological_order()]

    if cfg.operator_fusion:
        groups = [fuse_elementwise_chains(g, chunk_dag) for g in groups]

    subtasks = [Subtask(g) for g in groups]
    owner = {c.key: s for s in subtasks for c in s.chunks}

    dag: DAG[Subtask] = DAG()
    for s in subtasks:
        dag.add_node(s)
        for key in s.input_keys:
            producer = owner.get(key)
            if producer is not None:
                dag.add_edge(producer, s)
    return dag, subtasks
