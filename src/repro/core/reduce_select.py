"""Auto reduce selection (paper Section IV-C, Fig. 6a).

Chooses between *tree-reduce* (fast, low communication, but the final
node gathers all combined partials — only safe when the aggregated data
is small) and *shuffle-reduce* (scales to large aggregated data at the
cost of an all-to-all). The choice uses real metadata from dynamic
tiling's probe execution: the observed (aggregated bytes) / (input
bytes) ratio extrapolated over all input chunks.

Without dynamic tiling (baseline simulators), the policy falls back to
``cfg.static_reduce`` — the rule-based/manual configuration the paper
says other systems rely on.
"""
from __future__ import annotations

import math
from typing import Optional

from .chunk import ChunkNode, estimate_nbytes


def choose_reduce(
    ctx,
    in_chunks: list[ChunkNode],
    probe_meta: Optional[tuple],
    algebraic: bool,
) -> tuple[str, int, Optional[int]]:
    """Return ``(mode, n_reducers, est_out_bytes)``.

    ``probe_meta`` is ``(probe_map_chunks, probed_input_chunks)`` when
    dynamic tiling executed the map stage on the first few chunks, else
    ``None``.
    """
    cfg = ctx.cfg

    if not cfg.dynamic_tiling:
        mode = cfg.static_reduce
        if mode == "tree" and not algebraic:
            mode = "shuffle"  # tree cannot express non-algebraic funcs
        return mode, _static_n(cfg, in_chunks), None

    if not algebraic:
        # Non-algebraic funcs (nunique, median, ...) need full groups on
        # one reducer — only the shuffle path is correct.
        n = max(1, math.ceil(_est_in(ctx, in_chunks) / cfg.chunk_limit))
        est = None
        return "shuffle", n, est

    est_out = None
    if probe_meta is not None:
        probes, probed_inputs = probe_meta
        out_bytes = estimate_nbytes(probes)
        in_bytes = estimate_nbytes(probed_inputs)
        if out_bytes is not None and in_bytes:
            ratio = out_bytes / in_bytes
            est_out = int(ratio * _est_in(ctx, in_chunks))
    if est_out is not None and est_out <= cfg.tree_reduce_threshold:
        return "tree", 1, est_out
    if est_out is None:
        # metadata unavailable (e.g. probe produced nothing): be safe
        return "shuffle", max(1, len(in_chunks)), None
    n = max(1, math.ceil(est_out / cfg.chunk_limit))
    return "shuffle", n, est_out


def _static_n(cfg, in_chunks) -> int:
    return cfg.static_shuffle_partitions or max(1, len(in_chunks))


def _est_in(ctx, in_chunks: list[ChunkNode]) -> int:
    """Input bytes; with nothing observed, every chunk counts as full."""
    est = estimate_nbytes(in_chunks)
    return est if est is not None else len(in_chunks) * ctx.cfg.chunk_limit
