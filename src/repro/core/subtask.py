"""Subtask graph — the fine-grained physical plan (paper Section III-C).

A subtask is a fused subgraph of the chunk graph (graph-level fusion,
Section V-A) annotated with the band it should run on (Section V-B).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chunk import ChunkNode, new_key
from .config import EngineConfig
from .fusion import fuse_elementwise_chains, fusion_groups
from .graph import DAG


@dataclass(eq=False)
class Subtask:
    """One schedulable unit: a topo-ordered list of chunk nodes."""

    chunks: list[ChunkNode]
    key: str = field(default_factory=lambda: new_key("s"))
    band: Optional[str] = None

    def __post_init__(self) -> None:
        member_keys = {c.key for c in self.chunks}
        self.input_keys: list[str] = []
        seen: set[str] = set()
        for c in self.chunks:
            for inp in c.inputs:
                if inp.key not in member_keys and inp.key not in seen:
                    seen.add(inp.key)
                    self.input_keys.append(inp.key)
        self.member_keys = member_keys

    def __hash__(self) -> int:
        return hash(self.key)

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

    subtasks = [Subtask(chunks=g) for g in groups]
    owner: dict[str, Subtask] = {}
    for s in subtasks:
        for key in s.member_keys:
            owner[key] = s

    dag: DAG[Subtask] = DAG()
    for s in subtasks:
        dag.add_node(s)
        for key in s.input_keys:
            producer = owner.get(key)
            if producer is not None and producer is not s:
                dag.add_edge(producer, s)
    return dag, subtasks
