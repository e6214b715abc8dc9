"""Column pruning over the tileable graph (paper Section V-A).

Traverses backward from the data sinks recording the columns each
operator needs, and registers the pruned column set on the data-source
operators so unnecessary columns are never loaded (the paper's analogue
of predicate/projection pushdown). Conservative: any operator that
cannot describe its needs (``required_input_columns`` returning
``None``) forces full columns upstream of it.

Deferred evaluation makes pruning *incremental*: a later ``run`` may
extend the graph and need columns an earlier run pruned away. The tiler
therefore calls :func:`apply_pruning`, which compares the new
requirements against what each already-tiled source actually loaded and
reports the sources that must be re-tiled (their cached chunks — and
everything downstream — are invalidated by the tiler).
"""
from __future__ import annotations

from typing import Optional

from .graph import DAG
from .operators.base import Tileable


def compute_required(dag: DAG[Tileable]) -> dict[str, Optional[set]]:
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

    for t in dag.sink_nodes():
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


def apply_pruning(dag: DAG[Tileable]) -> list[Tileable]:
    """Annotate source ops with pruned columns; returns sources whose
    cached chunks are stale (tiled with fewer columns than now needed).
    """
    required = compute_required(dag)
    stale: list[Tileable] = []
    for t in dag.nodes():
        op = t.op
        if not hasattr(op, "pruned_columns") or t.inputs:
            continue
        req = required.get(t.key)
        if t.chunks is not None:
            # already tiled: check the earlier prune still covers req
            loaded = op.pruned_columns  # None = loaded everything
            if loaded is None or (req is not None and req <= loaded):
                continue
            stale.append(t)
        # a source loads the required names it has
        hint = t.columns_hint
        if req is not None and hint is not None:
            req = req & set(hint)
        op.pruned_columns = req
    return stale
