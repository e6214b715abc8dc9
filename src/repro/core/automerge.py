"""Auto merge (paper Section IV-C, Fig. 6b).

"Xorbits keeps concatenating data chunks until the merged chunks reach
the predefined size limit." Given chunk-size metadata collected from
execution, :func:`plan_merge_groups` packs adjacent chunks into groups
whose combined (estimated) size stays under ``cfg.chunk_limit``, bounded
by ``max_group`` so any one combine node gathers a few chunks at most —
keeping the graph small without overwhelming a single worker's memory.
:func:`combine_tree` builds every combine tree from those groups, out
of :class:`~.operators.base.Combine` nodes; :func:`tree_reduce` puts a
map stage of fusable :class:`~.operators.base.Kernel` nodes in front of
it (``groupby.agg``'s tree path, ``drop_duplicates``, tensor
reductions). Every level of a tree is narrower than the one below it,
so a tree always ends.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .chunk import ChunkMeta, ChunkNode
from .operators.base import Combine, Kernel

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


def combine_tree(ctx, chunks: list[ChunkNode], combine_fn: Callable,
                 final_fn: Callable) -> ChunkNode:
    """The map–combine–reduce tree over ``chunks`` (paper Section III-C):
    while the level is wider than :data:`FANOUT`, each merge group becomes
    one ``Combine(combine_fn)`` node (a singleton passes through); one
    ``Combine(final_fn)`` node then gathers what is left. Chunks without
    a known size group in fixed slices of :data:`FANOUT`. A level whose
    chunks are each too big to share a group would not shrink, so it is
    combined in adjacent pairs instead: every level shrinks."""
    level = chunks
    while len(level) > FANOUT:
        groups = plan_merge_groups(ctx, level, FANOUT)
        if len(groups) == len(level):
            groups = [level[i:i + 2] for i in range(0, len(level), 2)]
        level = [
            ChunkNode(op=Combine(combine_fn), inputs=g, index=(i, 0),
                      meta=ChunkMeta())
            if len(g) > 1 else g[0]
            for i, g in enumerate(groups)
        ]
    return ChunkNode(op=Combine(final_fn), inputs=level, index=(0, 0),
                     meta=ChunkMeta())


def map_chunks(chunks: list[ChunkNode], fn: Callable,
               start: int = 0) -> list[ChunkNode]:
    """One fusable ``Kernel(fn)`` node per chunk, the map stage of a
    tree reduction; node ``i`` is at index ``(start + i, 0)``."""
    return [ChunkNode(op=Kernel(fn), inputs=[c], index=(start + i, 0),
                      meta=ChunkMeta())
            for i, c in enumerate(chunks)]


def tree_reduce(ctx, chunks: list[ChunkNode], map_fn: Callable,
                combine_fn: Callable, final_fn: Callable,
                mapped: Sequence[ChunkNode] = ()) -> ChunkNode:
    """Map each chunk with ``map_fn``, then reduce the maps with
    :func:`combine_tree`. ``mapped`` are map nodes already built for the
    leading chunks (a dynamic-tiling probe); they are reused."""
    maps = list(mapped) + map_chunks(chunks[len(mapped):], map_fn,
                                     start=len(mapped))
    return combine_tree(ctx, maps, combine_fn, final_fn)
