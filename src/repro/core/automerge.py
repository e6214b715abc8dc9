"""Auto merge (paper Section IV-C, Fig. 6b).

"Xorbits keeps concatenating data chunks until the merged chunks reach
the predefined size limit." Given chunk-size metadata collected from
execution, :func:`plan_merge_groups` packs adjacent chunks into groups
whose combined (estimated) size stays under ``cfg.chunk_limit``, bounded
by ``max_group`` so any one combine node gathers a few chunks at most —
keeping the graph small without overwhelming a single worker's memory.
:func:`combine_tree` builds every combine tree from those groups.
"""
from __future__ import annotations

from typing import Callable

from .chunk import ChunkMeta, ChunkNode

FANOUT = 4  # most inputs any one combine node gathers


def plan_merge_groups(
    ctx, chunks: list[ChunkNode], max_group: int
) -> list[list[ChunkNode]]:
    """Greedily pack adjacent chunks into merge groups.

    Sizes are each chunk's ``meta.nbytes``: observed when the chunk has
    executed (dynamic tiling), else a planning hint; unknown sizes fall
    back to the mean of known ones so a fully-unknown level still groups
    by ``max_group`` alone.
    """
    if not chunks:
        return []
    limit = ctx.cfg.chunk_limit
    sizes = [c.meta.nbytes for c in chunks]
    known = [s for s in sizes if s is not None]
    fill = (sum(known) / len(known)) if known else None
    groups: list[list[ChunkNode]] = []
    cur: list[ChunkNode] = []
    cur_bytes = 0
    for chunk, size in zip(chunks, sizes):
        size = size if size is not None else fill
        over = (
            len(cur) >= max_group
            or (size is not None and cur and cur_bytes + size > limit)
        )
        if over and cur:
            groups.append(cur)
            cur, cur_bytes = [], 0
        cur.append(chunk)
        if size is not None:
            cur_bytes += size
    if cur:
        groups.append(cur)
    return groups


def combine_tree(ctx, chunks: list[ChunkNode], combine: Callable,
                 final: Callable) -> ChunkNode:
    """The map–combine–reduce tree over ``chunks`` (paper Section III-C):
    while the level is wider than :data:`FANOUT`, each merge group becomes
    one ``combine()`` node (a singleton passes through); one ``final()``
    node then gathers what is left. Chunks without a known size group in
    fixed slices of :data:`FANOUT`."""
    level = chunks
    while len(level) > FANOUT:
        level = [
            ChunkNode(op=combine(), inputs=g, index=(i, 0), meta=ChunkMeta())
            if len(g) > 1 else g[0]
            for i, g in enumerate(plan_merge_groups(ctx, level, FANOUT))
        ]
    return ChunkNode(op=final(), inputs=level, index=(0, 0), meta=ChunkMeta())
