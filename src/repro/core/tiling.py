"""The dynamic tiler (paper Section IV, Fig. 5a).

Walks the tileable graph in topological order and drives every
operator's ``tile`` generator. When a generator yields chunks — because
it needs metadata that only execution can supply — the tiler *switches
from graph construction to graph execution*: it submits the partial
chunk graph to the executor, which records the observed metadata on
those chunk nodes, and resumes the generator at the yield point
("iterative tiling"). With ``cfg.dynamic_tiling`` off, generators never
yield and partitioning falls back to static estimates — the baseline
behaviour of the systems in paper Tables I/II.
"""
from __future__ import annotations

from typing import Iterable

from .chunk import ChunkNode
from .config import EngineConfig, TileStats
from .executor import BaseExecutor
from .graph import build_dag
from .operators.base import Tileable, TileContext, run_tile
from .pruning import apply_pruning


class GraphTiler:
    """Tiles a tileable graph into chunks, executing probes on demand."""

    def __init__(self, cfg: EngineConfig, executor: BaseExecutor) -> None:
        self.cfg = cfg
        self.executor = executor
        self.stats = TileStats()

    def tile(self, targets: Iterable[Tileable]) -> list[str]:
        """Tile every not-yet-tiled tileable reachable from ``targets``
        (idempotent: already-tiled nodes keep their chunks, so repeated
        ``run`` calls on a growing graph reuse earlier work — the
        "deferred evaluation" usage mode).

        Returns the probe holds: one executor reference per executed
        probe target, which keeps its payload for the resumed generators
        and the final graph. The caller hands them to the final
        ``execute`` as ``release``; on a raise they are dropped here."""
        holds: list[str] = []
        try:
            self._tile(list(targets), holds)
        except BaseException:
            self.executor.decref(holds)
            raise
        return holds

    def _tile(self, targets: list[Tileable], holds: list[str]) -> None:
        dag = build_dag(targets)
        if self.cfg.column_pruning:
            stale = apply_pruning(dag)
            if stale:
                self._invalidate(dag, stale)
        ctx = TileContext(self.cfg, self.stats, self.executor.storage)

        def execute_probe(chunks: list[ChunkNode]) -> None:
            # the switch to execution (Fig. 5a step 2): run the partial
            # graph; its payloads stay held for the resumed generator
            self.executor.execute(chunks)
            holds.extend(c.key for c in chunks)

        tiled_ops: set[int] = set()
        for t in dag.topological_order():
            if t.chunks is not None:
                tiled_ops.add(id(t.op))
                continue
            if id(t.op) in tiled_ops:
                continue  # multi-output op already tiled via sibling
            tiled_ops.add(id(t.op))
            chunk_lists = run_tile(t, ctx, execute_probe)
            assert len(chunk_lists) == t.op.output_count, (
                f"{type(t.op).__name__} returned {len(chunk_lists)} chunk "
                f"lists for {t.op.output_count} outputs"
            )
            # siblings the caller dropped are gone; live ones get tiled
            # now so a later run does not tile the op a second time
            for out in t.op.outputs:
                out.chunks = chunk_lists[out.out_slot]

    def _invalidate(self, dag, stale: list[Tileable]) -> None:
        """Drop cached chunks of stale sources and their descendants so
        the next pass re-tiles them with the wider column set."""
        invalid = {t.key for t in stale}
        for t in dag.topological_order():
            if t.key in invalid or any(i.key in invalid for i in t.inputs):
                invalid.add(t.key)
                t.chunks = None
