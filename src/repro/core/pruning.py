"""Column pruning over the tileable graph (paper Section V-A).

Traverses backward from a run's targets recording the columns each
operator needs; the tiler hands each tileable its set on the
``TileContext``, so a data source loads only those columns (the paper's
analogue of predicate/projection pushdown). Conservative: a target needs
every column, and any operator that cannot describe its needs
(``required_input_columns`` returning ``None``) forces full columns
upstream of it.

Pruning is per run: only a run's targets keep their chunks, and they
have every column, so a later ``run`` that extends the graph tiles the
rest afresh for its own requirements.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .graph import DAG
from .operators.base import Tileable


def compute_required(dag: DAG[Tileable],
                     targets: Iterable[Tileable]) -> dict[str, Optional[set]]:
    """Per-tileable required-column map; ``None`` means "all columns"."""
    required: dict[str, Optional[set]] = {}

    def widen(key: str, cols: Optional[set]) -> None:
        if key not in required:
            required[key] = set(cols) if cols is not None else None
        elif required[key] is not None:
            if cols is None:
                required[key] = None
            else:
                required[key] |= cols

    for t in targets:
        widen(t.key, None)

    for t in dag.reverse_topological_order():
        req = required.get(t.key, set())
        per_input = t.op.required_input_columns(req)
        if per_input is None:
            for inp in t.inputs:
                widen(inp.key, None)
        else:
            for inp, cols in zip(t.inputs, per_input):
                widen(inp.key, cols)
    return required
