"""The dynamic tiler (paper Section IV, Fig. 5a).

Walks the tileable graph in topological order and drives the ``tile``
generator of every tileable not tiled yet: an operator has one output
tileable, and its ``tile`` returns that tileable's chunk list. When a
generator yields chunks — because it needs metadata that only
execution can supply — the tiler *switches from graph construction to
graph execution*: it submits the partial chunk graph to the executor,
which records the observed metadata on those chunk nodes, and resumes
the generator at the yield point ("iterative tiling"). With ``cfg.dynamic_tiling`` off, generators never
yield and partitioning falls back to static estimates — the baseline
behaviour of the systems in paper Tables I/II. ``GraphTiler.yields``
counts the switches; what each dynamic operator decided is on its
tileable (``Tileable.decision``), so it goes with the query's graph.
Column pruning is per run (:mod:`.pruning`): only a run's targets keep
their chunks, and they have every column.
"""
from __future__ import annotations

from typing import Iterable

from .chunk import ChunkNode
from .config import EngineConfig
from .executor import BaseExecutor
from .graph import build_dag
from .operators.base import Tileable, TileContext, run_tile
from .pruning import compute_required


class GraphTiler:
    """Tiles a tileable graph into chunks, executing probes on demand."""

    def __init__(self, cfg: EngineConfig, executor: BaseExecutor) -> None:
        self.cfg = cfg
        self.executor = executor
        self.yields = 0  # probe executions, i.e. tile → execute switches

    def tile(self, targets: Iterable[Tileable]) -> list[str]:
        """Tile what ``targets`` need: the walk stops at a tileable that
        still holds chunks, which only an earlier run's target does, so
        repeated ``run`` calls on a growing graph reuse its stored result
        (the "deferred evaluation" usage mode). Every other tileable the
        call tiles gives its chunk list back when the call ends; its chunk
        nodes stay reachable from the targets' chunks.

        Returns the probe holds: one executor reference per executed
        probe target and one per chunk a probe stored, taken when it was
        stored. They keep those payloads for the resumed generators and
        the final graph, so the query runs no stored chunk twice. The
        caller hands them to the final ``execute`` as ``release``; on a
        raise they are dropped here."""
        holds: list[str] = []
        try:
            self._tile(list(targets), holds)
        except BaseException:
            self.executor.decref(holds)
            raise
        return holds

    def _tile(self, targets: list[Tileable], holds: list[str]) -> None:
        dag = build_dag(targets, lambda t: t.chunks is not None)
        required = compute_required(dag, targets) if self.cfg.column_pruning else None
        ctx = TileContext(self.cfg, self.executor.storage, required)

        def execute_probe(chunks: list[ChunkNode]) -> None:
            # the switch to execution (Fig. 5a step 2): run the partial
            # graph; what it stores stays held for the resumed generator
            # and the final graph
            self.yields += 1
            self.executor.execute(chunks, (), holds)  # keep=holds
            holds.extend(c.key for c in chunks)

        tiled: list[Tileable] = []
        try:
            for t in dag.topological_order():
                if t.chunks is None:
                    t.chunks = run_tile(t, ctx, execute_probe)
                    tiled.append(t)
        finally:
            for t in tiled:
                if t not in targets:
                    t.chunks = None
