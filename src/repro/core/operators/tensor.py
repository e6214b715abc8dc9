"""Tensor operators: distributed arrays on the NumPy backend.

Implements the array side of the paper: sources chunked by the auto
rechunk algorithm (Section V-D), row-chunked matmul, generic
map/tree-reduce, and
the MapReduce tall-and-skinny QR (TSQR, Benson et al. [36]) that both
Xorbits and Dask use — with Xorbits picking the chunk shapes
automatically where Dask requires a manual ``rechunk``. Elementwise
kernels are the frontends' shared :class:`~.base.Elementwise` (fused by
the Section V-A passes), and a source block is held by
:class:`~.base.DataChunk`.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from ..automerge import combine_tree
from ..chunk import ChunkMeta, ChunkNode
from ..rechunk import auto_rechunk, chunk_slices
from .base import DataChunk, Operator, TileContext


class _RandomChunk(Operator):
    """Generate one chunk of uniform random values, seeded per chunk so
    workers generate independently and deterministically."""

    def __init__(self, shape: tuple, seed: int) -> None:
        self.shape = shape
        self.seed = seed

    def execute_chunk(self, inputs, chunk):
        return np.random.default_rng(self.seed).random(self.shape)


def _tile_rows(shape, itemsize, cfg):
    """Row-chunk a 1-D/2-D shape via Algorithm 1 (columns unsplit)."""
    dim_to_size = {1: shape[1]} if len(shape) > 1 else {}
    plan = auto_rechunk(shape, dim_to_size, itemsize, cfg.chunk_limit)
    return chunk_slices(plan[0])


class TensorSource(Operator):
    """Tileable over an in-memory ndarray, chunked by auto rechunk."""

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = np.asarray(arr)

    def tile(self, ctx: TileContext):
        slices = _tile_rows(self.arr.shape, self.arr.itemsize, ctx.cfg)
        chunks = [
            ChunkNode(op=DataChunk(self.arr[lo:hi]), inputs=[], index=(i, 0),
                      meta=ChunkMeta.from_payload(self.arr[lo:hi]))
            for i, (lo, hi) in enumerate(slices)
        ]
        return [chunks]


class TensorRandom(Operator):
    """``np.random.rand(n, m)`` — chunks generated on the workers.

    ``chunk_rows`` overrides the auto-rechunk row split with a fixed,
    user-chosen size — the manual chunking Dask requires (Listing 1);
    ``None`` (the Xorbits path) lets Algorithm 1 pick it.
    """

    def __init__(self, shape: tuple, seed: int = 0,
                 chunk_rows: Optional[int] = None) -> None:
        self.shape = tuple(shape)
        self.seed = seed
        self.chunk_rows = chunk_rows

    def tile(self, ctx: TileContext):
        if self.chunk_rows is not None:
            n = self.shape[0]
            slices = [(lo, min(lo + self.chunk_rows, n))
                      for lo in range(0, n, self.chunk_rows)]
        else:
            slices = _tile_rows(self.shape, 8, ctx.cfg)
        chunks = []
        for i, (lo, hi) in enumerate(slices):
            cshape = (hi - lo,) + tuple(self.shape[1:])
            chunks.append(
                ChunkNode(op=_RandomChunk(cshape, self.seed + i), inputs=[],
                          index=(i, 0),
                          meta=ChunkMeta(shape=cshape,
                                         nbytes=int(np.prod(cshape)) * 8))
            )
        return [chunks]


class MatMul(Operator):
    """Row-chunked A (n×k) @ single-chunk B (k×m): per-chunk matmul.

    The general 2-D-grid matmul is out of scope; tall-and-skinny times
    small is the shape our array workloads (LR normal equations, TSQR
    back-multiply) need.
    """

    def tile(self, ctx: TileContext):
        assert len(ctx.input_chunks(1)) == 1, (
            "MatMul requires an unchunked right operand"
        )
        return super().tile(ctx)

    def execute_chunk(self, inputs, chunk):
        a, b = inputs
        return a @ b


class _MapChunk(Operator):
    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def execute_chunk(self, inputs, chunk):
        return self.fn(inputs[0])


class _ReduceChunk(Operator):
    no_fuse_in = True

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def execute_chunk(self, inputs, chunk):
        acc = inputs[0]
        for x in inputs[1:]:
            acc = self.fn(acc, x)
        return acc


class TensorMapReduce(Operator):
    """Generic map + tree-combine reduction over row chunks.

    Backs ``sum``, Gram-matrix accumulation for linear regression, and
    any associative reduction; the combine tree uses the paper's auto
    merge grouping so no node gathers more than a few chunks.
    """

    def __init__(self, map_fn: Callable, reduce_fn: Callable) -> None:
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn

    def tile(self, ctx: TileContext):
        maps = [
            ChunkNode(op=_MapChunk(self.map_fn), inputs=[c], index=(i, 0),
                      meta=ChunkMeta())
            for i, c in enumerate(ctx.input_chunks(0))
        ]
        # a single chunk still gets a reduce node, for type parity
        reduce = partial(_ReduceChunk, self.reduce_fn)
        return [[combine_tree(ctx, maps, reduce, reduce)]]


# --------------------------------------------------------------------------
# TSQR — tall-and-skinny QR (the paper's MapReduce QR [29]/[36])
# --------------------------------------------------------------------------


class _QRMap(Operator):
    """Local QR of one row chunk → (Q_i, R_i) tuple payload."""

    def execute_chunk(self, inputs, chunk):
        q, r = np.linalg.qr(inputs[0])
        return (q, r)


class _QRStack(Operator):
    """Stack all R_i, QR the stack → (Q2, R). Q2 rows align with the
    stacked R_i blocks; the back-multiply picks its block by offset."""

    no_fuse_in = True

    def execute_chunk(self, inputs, chunk):
        rs = [t[1] for t in inputs]
        stacked = np.vstack(rs)
        q2, r = np.linalg.qr(stacked)
        return (q2, r, [r_.shape[0] for r_ in rs])


class _QRFinalR(Operator):
    elementwise = True

    def execute_chunk(self, inputs, chunk):
        return inputs[0][1]


class _QRBackMul(Operator):
    """Q_i_final = Q_i @ Q2[block_i] (the reduce of TSQR)."""

    def __init__(self, block: int) -> None:
        self.block = block

    def execute_chunk(self, inputs, chunk):
        (qi, _ri), (q2, _r, sizes) = inputs
        lo = sum(sizes[: self.block])
        hi = lo + sizes[self.block]
        return qi @ q2[lo:hi]


class TensorQR(Operator):
    """``np.linalg.qr`` for tall-and-skinny row-chunked input.

    ``tile`` first *re-chunks* the input with Algorithm 1 under the
    tall-and-skinny constraint (``dim_to_size={1: n_cols}``) — the step
    Dask pushes onto the user (paper Listing 1). Chunks that are too
    short (rows < cols) are auto-merged before the local QR.
    """

    output_count = 2

    def tile(self, ctx: TileContext):
        in_chunks = ctx.input_chunks(0)
        # ensure every chunk is tall-and-skinny: merge adjacent chunks
        # until rows >= cols (needs shapes; sources/elementwise carry them)
        shapes = [c.meta.shape for c in in_chunks]
        if any(s is None for s in shapes) and ctx.cfg.dynamic_tiling:
            yield in_chunks
            shapes = [c.meta.shape for c in in_chunks]
        ncols = shapes[0][1]
        merged: list[ChunkNode] = []
        group: list[ChunkNode] = []
        rows = 0
        for c, s in zip(in_chunks, shapes):
            group.append(c)
            rows += s[0]
            if rows >= ncols:
                merged.append(
                    group[0] if len(group) == 1 else
                    ChunkNode(op=_TensorConcat(), inputs=group, index=(len(merged), 0),
                              meta=ChunkMeta())
                )
                group, rows = [], 0
        if group:
            # tail too short: fold into previous (or single short chunk)
            if merged:
                prev = merged.pop()
                merged.append(
                    ChunkNode(op=_TensorConcat(), inputs=[prev] + group,
                              index=(len(merged), 0), meta=ChunkMeta())
                )
            else:
                merged.append(
                    group[0] if len(group) == 1 else
                    ChunkNode(op=_TensorConcat(), inputs=group, index=(0, 0),
                              meta=ChunkMeta())
                )

        qr_maps = [
            ChunkNode(op=_QRMap(), inputs=[c], index=(i, 0), meta=ChunkMeta())
            for i, c in enumerate(merged)
        ]
        stack = ChunkNode(op=_QRStack(), inputs=list(qr_maps), index=(0, 0),
                          meta=ChunkMeta())
        q_chunks = [
            ChunkNode(op=_QRBackMul(i), inputs=[m, stack], index=(i, 0),
                      meta=ChunkMeta())
            for i, m in enumerate(qr_maps)
        ]
        r_chunk = ChunkNode(op=_QRFinalR(), inputs=[stack], index=(0, 0),
                            meta=ChunkMeta())
        return [q_chunks, [r_chunk]]


class _TensorConcat(Operator):
    def execute_chunk(self, inputs, chunk):
        return np.concatenate(inputs, axis=0)
