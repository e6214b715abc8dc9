"""DataFrame operators (paper Sections III-C, IV).

Implements the multi-stage map–combine–reduce model for ``groupby.agg``,
the dynamic-tiling paths for ``merge`` (broadcast / shuffle / skew),
``sort_values`` (single node / range shuffle) and ``iloc`` (the paper's
4-8-5 filtered-chunk example), and the 1:1 projection, filter and rename
operators that graph- and operator-level fusion later merge into
subtasks (their ``tile`` is the shared row-aligned default of
:class:`~.base.Operator`). Every chunk kernel is a module-level function
of its input payloads, bound to its parameters with
``functools.partial`` and run by a :class:`~.base.Kernel` or, when it
gathers many chunks, a :class:`~.base.Combine`. Every shuffle is built
by :func:`~.base.shuffle` and every tree reduction by
:func:`~..automerge.tree_reduce`; groupby, merge, sort and dedup supply
only their kernels.

Every operator works in two modes:

* **dynamic** (``cfg.dynamic_tiling``): ``tile`` yields probe chunks,
  reads the metadata execution observed on them (``chunk.meta``), and
  picks the partitioning (auto reduce selection, broadcast vs shuffle
  merge, skew handling).
* **static** (baseline simulators, ablations): no yields; partitioning
  comes from planning-time estimates / fixed policies, reproducing the
  failure modes of Table II.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Optional

import numpy as np
import pandas as pd

from ..automerge import map_chunks, tree_reduce
from ..chunk import (Block, Buckets, ChunkMeta, ChunkNode, estimate_nbytes,
                     frame_of, payload_nbytes)
from ..reduce_select import choose_reduce
from .base import (Combine, DataChunk, Elementwise, Kernel, Operator,
                   TileContext, shuffle)

# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

ALGEBRAIC_FUNCS = {"sum", "count", "min", "max", "mean", "size"}

#: how many head chunks dynamic tiling executes to collect metadata
#: ("runs the operator on the first few chunks", paper Section IV-B)
PROBE_CHUNKS = 2


def split_pandas(pdf: pd.DataFrame,
                 max_bytes: int) -> tuple[list[pd.DataFrame], int]:
    """Row-split ``pdf`` into pieces of at most ~``max_bytes`` each; a
    zero-row frame is one zero-row piece, which keeps its schema.
    Returns the pieces and ``pdf``'s metered size."""
    total = payload_nbytes(pdf)
    n = max(1, math.ceil(total / max(1, max_bytes)))
    n = min(n, max(1, len(pdf)))
    bounds = np.linspace(0, len(pdf), n + 1).astype(int)
    return [pdf.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], total


def _split_by_codes(pdf, codes: np.ndarray, total: int,
                    rows: Optional[np.ndarray] = None) -> Buckets:
    """Split ``pdf`` by per-row bucket ``codes`` in ``range(total)`` into
    blocks (:class:`Block`), keeping only the non-empty buckets; rows keep
    their input order inside a bucket. ``rows`` (default: every row, in
    order) names the row each code belongs to, so a row may go to
    several buckets. One stable sort, one take per column, then a slice
    per bucket: O(rows log rows) and one small object per bucket."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(total + 1))
    full = np.flatnonzero(np.diff(bounds)).tolist()
    block = Block.of(pdf)
    # the zero-row schema owns fresh arrays: a zero-row slice would keep
    # the whole input alive through its base arrays
    empty = Block(block.columns, block.index[:0].copy(deep=True),
                  [a[:0].copy() for a in block.arrays])
    if rows is None and len(full) <= 1:  # no rows, or all in one bucket
        return Buckets({r: block for r in full}, empty)
    block = block.take(order if rows is None else rows[order])
    return Buckets({r: block.slice(bounds[r], bounds[r + 1]) for r in full},
                   empty)


def _hash_codes(pdf: pd.DataFrame, on: list[str], n: int) -> np.ndarray:
    """Each row's hash bucket in ``range(n)`` on key columns ``on``."""
    if n <= 1 or len(pdf) == 0:
        return np.zeros(len(pdf), dtype=np.intp)
    if len(on) == 1:
        h = pd.util.hash_pandas_object(pdf[on[0]], index=False)
    else:
        h = pd.util.hash_pandas_object(
            pdf[on].astype(object).apply(tuple, axis=1), index=False
        )
    return (h % n).to_numpy().astype(np.intp)


def hash_partition(
    pdf: pd.DataFrame, on: list[str], n: int, total: Optional[int] = None
) -> Buckets:
    """Deterministic hash partitioning on key columns — same function on
    every engine so shuffles are reproducible.

    Only the non-empty buckets of ``range(total or n)`` are in the
    result; its ``empty`` carries the schema for the rest, so the
    executor stores one entry per *non-empty* bucket.
    """
    total = total if total is not None else n
    return _split_by_codes(pdf, _hash_codes(pdf, on, n), total)


def _concat(*parts):
    """Row concat of a chunk's inputs — the paper's ``Concat`` node in
    the combine stage and in auto merge."""
    return parts[0] if len(parts) == 1 else pd.concat(parts)


def _concat_arrays(arrays: list):
    """One column's arrays end to end; ``None`` unless they share a
    dtype (pandas would find a common one)."""
    first = arrays[0]
    if any(a.dtype != first.dtype for a in arrays):
        return None
    if isinstance(first, np.ndarray):
        return np.concatenate(arrays)
    return type(first)._concat_same_type(arrays)


def _as_block(part) -> Block:
    return part if isinstance(part, Block) else Block.of(part)


def _concat_blocks(parts: list) -> Block:
    """A reducer side's rows as one block: the non-empty parts in order,
    with one concatenate per column. Parts whose columns or dtypes
    differ go through ``pd.concat``, which finds their common schema.
    With no rows, the first part's (zero-row) schema."""
    blocks = [_as_block(p) for p in parts if len(p)]
    if not blocks:
        return _as_block(parts[0])
    first = blocks[0]
    if len(blocks) == 1:
        return first
    if all(b.columns.equals(first.columns) for b in blocks):
        arrays = [_concat_arrays([b.arrays[i] for b in blocks])
                  for i in range(len(first.arrays))]
        if all(a is not None for a in arrays):
            index = first.index.append([b.index for b in blocks[1:]])
            return Block(first.columns, index, arrays)
    return Block.of(pd.concat([b.frame() for b in blocks]))


def _concat_parts(parts: list) -> pd.DataFrame:
    """Concat shuffle parts into a frame, skipping empties (they only
    carry schema)."""
    return _concat_blocks(parts).frame()


def normalize_aggs(aggs: Any, kwargs: dict) -> tuple[list[tuple[str, Optional[str], str]], str]:
    """Normalize an ``agg`` spec to ``[(out_name, col, func), ...]``.

    Supported inputs (same surface the paper's coverage benchmark uses):
    a single func name, ``{col: func}``, ``{col: [funcs]}``, and NamedAgg
    kwargs ``out=(col, func)``. Returns the normalized list plus an
    output layout tag: "flat" (plain columns) or "multi" (pandas-style
    MultiIndex columns, produced by dict-of-list specs).
    """
    out: list[tuple[str, Optional[str], str]] = []
    layout = "flat"
    if kwargs:
        for out_name, spec in kwargs.items():
            if isinstance(spec, tuple):
                col, func = spec
            else:  # pd.NamedAgg
                col, func = spec.column, spec.aggfunc
            out.append((out_name, col, func))
        return out, layout
    if isinstance(aggs, str):
        return [("__all__", None, aggs)], "flat"
    if isinstance(aggs, dict):
        for col, spec in aggs.items():
            if isinstance(spec, (list, tuple)):
                layout = "multi"
                for f in spec:
                    out.append((f"{col}|{f}", col, f))
            else:
                out.append((col, col, spec))
        return out, layout
    raise TypeError(f"unsupported agg spec: {aggs!r}")


# --------------------------------------------------------------------------
# data sources
# --------------------------------------------------------------------------


class FromPandas(Operator):
    """Tileable source over an in-memory pandas DataFrame/Series."""

    def __init__(self, pdf: Any) -> None:
        self.pdf = pdf

    def tile(self, ctx: TileContext):
        pdf = self.pdf
        keep = ctx.required.get(ctx.tileable.key)
        if keep is not None and isinstance(pdf, pd.DataFrame):
            # the pruner is conservative about suffixed/derived names;
            # keep only columns the source has, in the source's order
            pdf = pdf[[c for c in pdf.columns if c in keep]]
        limit = ctx.cfg.chunk_limit
        if isinstance(pdf, pd.Series):
            pieces, total = split_pandas(pdf.to_frame("__s__"), limit)
            pieces = [p["__s__"].rename(pdf.name) for p in pieces]
        else:
            pieces, total = split_pandas(pdf, limit)
        # each piece's size hint is its row share of the metered total
        rows = max(1, len(pdf))
        return [
            ChunkNode(op=DataChunk(p), inputs=[], index=(i, 0),
                      meta=ChunkMeta(shape=p.shape, nbytes=total * len(p) // rows))
            for i, p in enumerate(pieces)
        ]

    def required_input_columns(self, required_out):
        return []


# --------------------------------------------------------------------------
# 1:1 projection / filter / rename (tiled by the default ``Operator.tile``)
# --------------------------------------------------------------------------


class GetItem(Operator):
    """Column projection: ``df[col]`` (series) or ``df[[cols]]``."""

    elementwise = True

    def __init__(self, item: Any) -> None:
        self.item = item

    def execute_chunk(self, inputs):
        return inputs[0][self.item]

    def required_input_columns(self, required_out):
        cols = self.item if isinstance(self.item, list) else [self.item]
        if required_out is not None and isinstance(self.item, list):
            cols = [c for c in cols if c in required_out]
        return [set(cols)]


class InputRef:
    """Marks an assign value as 'the op's i-th tileable input' (a plain
    int would be ambiguous with a literal scalar assignment)."""

    __slots__ = ("pos",)

    def __init__(self, pos: int) -> None:
        self.pos = pos


class SetColumns(Operator):
    """``df.assign(...)`` / ``df[c] = s`` — df input 0, value inputs after.

    ``values`` entries are either literal scalars or :class:`InputRef`s
    naming the tileable input carrying the column's series.
    """

    elementwise = True

    def __init__(self, names: list[str], values: list[Any]) -> None:
        self.names = names
        self.values = values

    def execute_chunk(self, inputs):
        df = inputs[0].copy(deep=False)
        for name, v in zip(self.names, self.values):
            if isinstance(v, InputRef):
                val = inputs[v.pos]
                if isinstance(val, pd.Series):
                    val = val.values if len(val) == len(df) else val
                df[name] = val
            else:
                df[name] = v
        return df

    def required_input_columns(self, required_out):
        if required_out is None:
            return None
        need0 = set(required_out) - set(self.names)
        # value inputs are series; they need everything they carry
        return [need0] + [None] * (len(self.values))


class Filter(Operator):
    """Boolean-mask row filter ``df[mask]`` — the canonical *non-static*
    operator: its output shape depends on data content (Section IV-A)."""

    elementwise = True

    def execute_chunk(self, inputs):
        df, mask = inputs
        return df[np.asarray(mask, dtype=bool)]

    def required_input_columns(self, required_out):
        return [set(required_out) if required_out is not None else None, None]


class Rename(Operator):
    elementwise = True
    preserves_shape = True

    def __init__(self, columns: dict) -> None:
        self.columns = columns

    def execute_chunk(self, inputs):
        obj = inputs[0]
        if isinstance(obj, pd.Series):
            return obj.rename(self.columns) if not isinstance(self.columns, dict) else obj
        return obj.rename(columns=self.columns)

    def required_input_columns(self, required_out):
        if required_out is None:
            return None
        inv = {v: k for k, v in self.columns.items()}
        return [{inv.get(c, c) for c in required_out}]


# --------------------------------------------------------------------------
# concat / iloc / head  (iterative tiling)
# --------------------------------------------------------------------------


class Concat(Operator):
    """Tileable-level row concat of several frames."""

    def tile(self, ctx: TileContext):
        chunks = []
        r = 0
        for i in range(len(ctx.inputs)):
            for c in ctx.input_chunks(i):
                chunks.append(ChunkNode(op=Elementwise(_identity, "identity"),
                                        inputs=[c], index=(r, 0),
                                        meta=ChunkMeta(shape=c.meta.shape)))
                r += 1
        return chunks


def _identity(x):
    return x


def _iloc(df, item):
    """Chunk-level positional slice/pick."""
    return df.iloc[item]


class ILoc(Operator):
    """Positional row access — the paper's iterative-tiling showcase.

    With dynamic tiling, the chunk lengths of the (possibly filtered)
    input are unknown: we ``yield`` the input chunks, read the real
    lengths execution recorded on them, and then attach an
    ``_iloc`` kernel to exactly the chunk(s) containing the requested rows
    (Fig. 3c: lengths 4, 8, 5 → row 10 lives in chunk 2). Without dynamic tiling
    everything is concatenated onto one node first — the baseline
    behaviour that either OOMs or is simply unsupported (Dask).
    """

    def __init__(self, item: Any) -> None:
        self.item = item
        if not isinstance(item, (int, slice)):
            raise TypeError("iloc supports an int or a slice of rows")

    def tile(self, ctx: TileContext):
        in_chunks = ctx.input_chunks(0)

        def lengths_known() -> bool:
            return all(
                c.meta.shape is not None and c.meta.shape[0] is not None
                for c in in_chunks
            )

        if not lengths_known():
            if ctx.cfg.dynamic_tiling:
                yield in_chunks  # iterative tiling: execute, then resume
            else:
                # static fallback: single-node concat + iloc
                gather = ChunkNode(op=Kernel(_concat), inputs=list(in_chunks),
                                   index=(0, 0), meta=ChunkMeta())
                out = ChunkNode(op=Kernel(partial(_iloc, item=self.item)),
                                inputs=[gather], index=(0, 0), meta=ChunkMeta())
                return [out]
        lengths = [c.meta.shape[0] for c in in_chunks]
        offsets = np.cumsum([0] + lengths)
        total = int(offsets[-1])
        if isinstance(self.item, int):
            pos = self.item if self.item >= 0 else total + self.item
            if not 0 <= pos < total:
                raise IndexError(f"iloc index {self.item} out of bounds ({total} rows)")
            ci = int(np.searchsorted(offsets, pos, side="right") - 1)
            local = pos - int(offsets[ci])
            out = ChunkNode(op=Kernel(partial(_iloc, item=local)),
                            inputs=[in_chunks[ci]], index=(0, 0), meta=ChunkMeta())
            return [out]
        # slice
        start, stop, step = self.item.indices(total)
        chunks = []
        r = 0
        for ci, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            s = max(start, int(lo))
            e = min(stop, int(hi))
            if s >= e:
                continue
            local = slice(s - int(lo), e - int(lo), step)
            chunks.append(ChunkNode(op=Kernel(partial(_iloc, item=local)),
                                    inputs=[in_chunks[ci]], index=(r, 0),
                                    meta=ChunkMeta()))
            r += 1
        if not chunks:
            empty = ChunkNode(op=Kernel(partial(_iloc, item=slice(0, 0))),
                              inputs=[in_chunks[0]], index=(0, 0), meta=ChunkMeta())
            chunks = [empty]
        return chunks


class Head(ILoc):
    """``df.head(n)`` — an iloc slice."""

    def __init__(self, n: int) -> None:
        super().__init__(slice(0, n))


# --------------------------------------------------------------------------
# groupby.agg — map / combine / reduce with auto reduce selection
# --------------------------------------------------------------------------


def _agg_map(df, keys: list[str], specs: list[tuple], series_name=None):
    """Map stage: per-chunk partial aggregation over the normalized
    ``(out, col, func)`` specs (algebraic funcs are decomposed, e.g.
    mean → sum + count)."""
    if isinstance(df, pd.Series):
        df = df.to_frame(series_name or df.name or "__val__")
    g = df.groupby(keys, sort=False, observed=True)
    parts = {}
    for i, (_out, col, func) in enumerate(specs):
        src = g[col] if col is not None else g[df.columns.difference(keys)[0]]
        if func == "mean":
            parts[f"{i}__sum"] = src.sum()
            parts[f"{i}__count"] = src.count()
        elif func == "size":
            parts[f"{i}__size"] = g.size()
        elif func in ("sum", "count", "min", "max"):
            parts[f"{i}__{func}"] = getattr(src, func)()
        else:
            raise ValueError(f"non-algebraic func in tree path: {func}")
    return pd.DataFrame(parts)


_PART_COMBINER = {"sum": "sum", "count": "sum", "size": "sum", "min": "min", "max": "max"}


def _combine_partials(parts: list, sort: bool) -> pd.DataFrame:
    """Merge ``_agg_map`` partial frames group by group."""
    df = pd.concat(parts)
    how = {c: _PART_COMBINER[c.rsplit("__", 1)[1]] for c in df.columns}
    return df.groupby(level=list(range(df.index.nlevels)), sort=sort).agg(how)


def _user_layout(res: pd.DataFrame, keys: list, layout: str) -> pd.DataFrame:
    """Give a final aggregate pandas' column layout and index names."""
    if layout == "multi":
        res.columns = pd.MultiIndex.from_tuples(
            [tuple(n.split("|", 1)) for n in res.columns]
        )
    res.index.names = keys
    return res


def _agg_combine(*parts):
    """Combine stage: merge a subset of partial results (pre-aggregation
    that keeps any one node's gather small — paper Section III-C)."""
    return _combine_partials(parts, sort=False)


def _agg_finalize(*parts, keys, specs, layout: str):
    """Reduce stage of the tree path: combine + finalize to user columns."""
    df = _combine_partials(parts, sort=True)
    out = {}
    for i, (out_name, _col, func) in enumerate(specs):
        if func == "mean":
            out[out_name] = df[f"{i}__sum"] / df[f"{i}__count"]
        elif func == "size":
            out[out_name] = df[f"{i}__size"]
        else:
            out[out_name] = df[f"{i}__{func}"]
    return _user_layout(pd.DataFrame(out), keys, layout)


def _agg_split(df, keys, specs, n, algebraic, series_name):
    """Shuffle map of a groupby: partial-agg (algebraic) or raw rows
    (general funcs), hash-split by group key into ``n`` buckets."""
    if isinstance(df, pd.Series):
        df = df.to_frame(series_name or df.name or "__val__")
    if algebraic:
        df = _agg_map(df, keys, specs, series_name).reset_index()
    return hash_partition(df, keys, n)


def _agg_reduce(blocks, keys, specs, layout, algebraic):
    """Shuffle reduce of a groupby: final aggregate of one bucket with
    full pandas semantics (supports non-algebraic funcs like
    ``nunique`` / ``median``)."""
    df = _concat_parts(blocks)
    if algebraic:
        return _agg_finalize(df.set_index(keys), keys=keys, specs=specs,
                             layout=layout)
    g = df.groupby(keys, sort=True, observed=True)
    out = {}
    for out_name, col, func in specs:
        src = g[col] if col is not None else g
        out[out_name] = src.size() if func == "size" else src.agg(func)
    return _user_layout(pd.DataFrame(out), keys, layout)


class GroupByAgg(Operator):
    """``df.groupby(keys).agg(...)`` with the paper's multi-stage model
    and auto reduce selection (Section IV-C, Fig. 6a)."""

    def __init__(self, keys: list[str], aggs: Any = None, agg_kwargs: dict = None,
                 series_name=None) -> None:
        self.keys = list(keys)
        self.specs, self.layout = normalize_aggs(aggs, agg_kwargs or {})
        self.series_name = series_name
        self.algebraic = all(f in ALGEBRAIC_FUNCS for _, _, f in self.specs)

    def tile(self, ctx: TileContext):
        cfg = ctx.cfg
        in_chunks = ctx.input_chunks(0)
        specs = self._resolved_specs(ctx)
        agg_map = partial(_agg_map, keys=self.keys, specs=specs,
                          series_name=self.series_name)

        probe_meta = None
        if cfg.dynamic_tiling and self.algebraic:
            # Run the map stage on the first few chunks to observe the
            # aggregation ratio (paper Fig. 5): build a temporary chunk
            # graph, yield it for execution, read back real sizes. The
            # probed *inputs* are requested too — they are fused
            # intermediates otherwise, and the ratio needs their size.
            k = min(PROBE_CHUNKS, len(in_chunks))
            probes = map_chunks(in_chunks[:k], agg_map)
            yield probes + list(in_chunks[:k])
            probe_meta = (probes, in_chunks[:k])

        mode, n_reducers, est_out = choose_reduce(
            ctx, in_chunks, probe_meta, algebraic=self.algebraic
        )
        ctx.tileable.decision = mode

        if mode == "tree":
            final = partial(_agg_finalize, keys=self.keys, specs=specs,
                            layout=self.layout)
            mapped = probe_meta[0] if probe_meta is not None else ()
            return [tree_reduce(ctx, in_chunks, agg_map, _agg_combine, final,
                                mapped=mapped)]

        split = partial(_agg_split, keys=self.keys, specs=specs, n=n_reducers,
                        algebraic=self.algebraic, series_name=self.series_name)
        reduce = partial(_agg_reduce, keys=self.keys, specs=specs,
                         layout=self.layout, algebraic=self.algebraic)
        return shuffle([(in_chunks, split)], n_reducers, reduce)

    def _resolved_specs(self, ctx: TileContext):
        """Resolve ``agg('sum')``-style whole-frame specs against the
        input's known columns."""
        if not any(col is None and out == "__all__" for out, col, _ in self.specs):
            return self.specs
        in_chunks = ctx.input_chunks(0)
        cols = None
        for c in in_chunks:
            if c.meta.columns:
                cols = c.meta.columns
                break
        if cols is None:
            cols = ctx.inputs[0].columns_hint
        resolved = []
        for out, col, func in self.specs:
            if col is None and out == "__all__":
                if cols is None:
                    # series groupby: single unnamed value column
                    name = self.series_name or "__val__"
                    resolved.append((name, name, func))
                else:
                    for c in cols:
                        if c not in self.keys:
                            resolved.append((c, c, func))
            else:
                resolved.append((out, col, func))
        return resolved

    def required_input_columns(self, required_out):
        cols = set(self.keys)
        for _out, col, _f in self.specs:
            if col is not None:
                cols.add(col)
            else:
                return [None]
        return [cols]


# --------------------------------------------------------------------------
# merge — broadcast / shuffle / skew-aware shuffle
# --------------------------------------------------------------------------


class _MergeKw:
    def __init__(self, on=None, left_on=None, right_on=None, how="inner",
                 suffixes=("_x", "_y")):
        self.on = on
        self.left_on = left_on or on
        self.right_on = right_on or on
        self.how = how
        self.suffixes = suffixes

    def left_keys(self) -> list[str]:
        k = self.left_on
        return list(k) if isinstance(k, (list, tuple)) else [k]

    def right_keys(self) -> list[str]:
        k = self.right_on
        return list(k) if isinstance(k, (list, tuple)) else [k]

    def pandas_kwargs(self) -> dict:
        if self.on is not None:
            return {"on": self.on, "how": self.how, "suffixes": self.suffixes}
        return {"left_on": self.left_on, "right_on": self.right_on,
                "how": self.how, "suffixes": self.suffixes}


def _merge_broadcast(big, *small_parts, kw: _MergeKw, small_side: str):
    """One big-side chunk merged against the whole small side
    (``small_side`` is "left" or "right"), chosen when dynamic tiling
    observes a tiny build side (the TPCx-AI UC10 imbalance case). The
    small parts become one block, and a unique-keyed small side builds
    the hash join (:func:`_hash_join`); every other input goes through
    pandas' merge."""
    small = _concat_blocks(list(small_parts))
    if small_side == "right":
        out = _hash_join(Block.of(big), small, kw)
        return big.merge(small.frame(), **kw.pandas_kwargs()) if out is None else out
    out = _hash_join(small, Block.of(big), kw, build="left")
    return small.frame().merge(big, **kw.pandas_kwargs()) if out is None else out


def _merge_split(df, keys: list[str], n: int,
                 hot_keys: Optional[frozenset] = None, hot_buckets: int = 0,
                 replicate_hot: bool = False):
    """Shuffle map of a merge side: hash-split by join key into ``n``
    buckets; rows with a hot key go to the ``hot_buckets`` after them.
    The build side replicates its hot rows to every hot bucket
    (``replicate_hot``); the probe side round-robins them."""
    total = n + hot_buckets
    if not hot_keys:
        return hash_partition(df, keys, n, total=total)
    if len(keys) == 1:
        hot_mask = df[keys[0]].isin(hot_keys).to_numpy()
    else:
        hot_mask = pd.MultiIndex.from_frame(df[keys]).isin(hot_keys)
    codes = _hash_codes(df, keys, n)
    hot = np.flatnonzero(hot_mask)
    if not replicate_hot:
        codes[hot] = n + np.arange(len(hot)) % hot_buckets
        return _split_by_codes(df, codes, total)
    rows = np.concatenate([np.flatnonzero(~hot_mask), np.tile(hot, hot_buckets)])
    codes = np.concatenate([codes[~hot_mask],
                            np.repeat(np.arange(n, total), len(hot))])
    return _split_by_codes(df, codes, total, rows)


def _key_positions(columns: pd.Index, keys: list[str]) -> Optional[list[int]]:
    """Positions of ``keys`` among ``columns``; ``None`` unless each
    names exactly one column."""
    pos = [columns.get_loc(k) if k in columns else None for k in keys]
    return pos if all(isinstance(p, int) for p in pos) else None


def _key_index(arrays: list) -> pd.Index:
    """The join keys of a side, one key array per column, as an index."""
    return pd.Index(arrays[0]) if len(arrays) == 1 else pd.MultiIndex.from_arrays(arrays)


def _hash_join(left: Block, right: Block, kw: _MergeKw,
               build: str = "right") -> Optional[pd.DataFrame]:
    """``left.merge(right)`` for a join whose ``build`` side ("right" or
    "left") has unique keys: index the build keys once, look every key
    of the other side up in it, and take the matching rows. A right
    build serves ``inner`` and ``left`` joins, in left row order; a left
    build serves ``inner`` joins, whose rows pandas orders by left row,
    then by right row. The result equals pandas' merge: left columns
    then right ones (a right key named like its left key is dropped),
    missing right values upcast as pandas upcasts them, and a
    ``RangeIndex``. ``None`` where pandas' own merge must decide: another
    ``how``, repeated build keys, names that need suffixes, or key
    dtypes that differ other than in the width of a NumPy integer."""
    if kw.how not in (("inner", "left") if build == "right" else ("inner",)):
        return None
    lkeys, rkeys = kw.left_keys(), kw.right_keys()
    lpos = _key_positions(left.columns, lkeys)
    rpos = _key_positions(right.columns, rkeys)
    if lpos is None or rpos is None or not left.columns.is_unique:
        return None
    for i, j in zip(lpos, rpos):
        lt, rt = left.arrays[i].dtype, right.arrays[j].dtype
        if lt != rt and not (isinstance(lt, np.dtype) and isinstance(rt, np.dtype)
                             and lt.kind == rt.kind == "i"):
            return None
    shared = {r for l, r in zip(lkeys, rkeys) if l == r}
    keep = [j for j, c in enumerate(right.columns) if c not in shared]
    if any(right.columns[j] in left.columns for j in keep):
        return None
    lindex = _key_index([left.arrays[i] for i in lpos])
    rindex = _key_index([right.arrays[j] for j in rpos])
    index, probe = (rindex, lindex) if build == "right" else (lindex, rindex)
    if not index.is_unique:
        return None
    found = index.get_indexer(probe)
    if kw.how == "left":
        larrays = [a.copy() for a in left.arrays]
        rarrays = [pd.api.extensions.take(right.arrays[j], found, allow_fill=True)
                   for j in keep]
    else:
        if build == "right":
            lrows = np.flatnonzero(found >= 0)
            rrows = found[lrows]
        else:
            rrows = np.flatnonzero(found >= 0)
            rrows = rrows[np.argsort(found[rrows], kind="stable")]
            lrows = found[rrows]
        larrays = [a.take(lrows) for a in left.arrays]
        rarrays = [right.arrays[j].take(rrows) for j in keep]
    columns = left.columns.append(right.columns[keep])
    return frame_of(columns, pd.RangeIndex(len(larrays[0])), larrays + rarrays)


def _merge_reduce(blocks, kw: _MergeKw, n_left: int):
    """Shuffle reduce of a merge: the first ``n_left`` blocks are the left
    side's. The executor hands every bucket a mapper did not store as
    that mapper's zero-row ``empty``, so both sides' column structure is
    always here; merging empty sides yields the right output columns.
    A unique-keyed build side is joined by :func:`_hash_join`; every
    other input goes through pandas' merge."""
    left = _concat_blocks(blocks[:n_left])
    right = _concat_blocks(blocks[n_left:])
    out = _hash_join(left, right, kw)
    if out is None:
        out = left.frame().merge(right.frame(), **kw.pandas_kwargs())
    return out


class Merge(Operator):
    """``df.merge(other)`` with dynamic broadcast/shuffle/skew selection
    (Sections IV-C, VI-B)."""

    def __init__(self, **kwargs) -> None:
        self.kw = _MergeKw(**kwargs)

    def tile(self, ctx: TileContext):
        cfg = ctx.cfg
        left = ctx.input_chunks(0)
        right = ctx.input_chunks(1)
        if not cfg.dynamic_tiling:
            n_red = cfg.static_shuffle_partitions or max(len(left), len(right))
            return self._shuffle(left, right, n_red)

        probes = [c for c in left[:PROBE_CHUNKS] + right[:PROBE_CHUNKS]
                  if not c.meta.observed]
        if probes:
            yield probes
        # every side has an observed chunk now, so both estimates exist
        est_l = estimate_nbytes(left)
        est_r = estimate_nbytes(right)

        # --- broadcast path -------------------------------------------
        small_side = None
        if est_r <= cfg.broadcast_threshold and self.kw.how in ("inner", "left"):
            small_side = "right"
        elif est_l <= cfg.broadcast_threshold and self.kw.how in ("inner", "right"):
            small_side = "left"
        if small_side is not None:
            ctx.tileable.decision = "broadcast"
            big, small = (left, right) if small_side == "right" else (right, left)
            merge = Kernel(partial(_merge_broadcast, kw=self.kw,
                                   small_side=small_side))
            return [
                ChunkNode(op=merge, inputs=[b] + list(small), index=(i, 0),
                          meta=ChunkMeta())
                for i, b in enumerate(big)
            ]

        # --- shuffle path, with skew buckets for hot keys --------------
        n_red = max(1, math.ceil((est_l + est_r) / cfg.chunk_limit))
        hot_keys, hot_bytes = _detect_hot_keys(
            ctx, left, right, self.kw.left_keys(), self.kw.right_keys())
        if not hot_keys:
            ctx.tileable.decision = "shuffle"
            return self._shuffle(left, right, n_red)
        ctx.tileable.decision = "skew"
        hot_buckets = max(1, math.ceil(hot_bytes / cfg.chunk_limit))
        return self._shuffle(left, right, n_red, frozenset(hot_keys), hot_buckets)

    def _shuffle(self, left, right, n_red: int,
                 hot_keys: Optional[frozenset] = None, hot_buckets: int = 0):
        """Hash shuffle into ``n_red`` reducers plus ``hot_buckets`` skew
        buckets for ``hot_keys``. The probe side (the preserved/larger
        side, left for ``how='left'``) spreads its hot rows over the skew
        buckets; the build side replicates its hot rows to every one."""
        use_hot = hot_keys is not None
        probe_is_left = self.kw.how in ("left", "inner")
        split = partial(_merge_split, n=n_red, hot_keys=hot_keys,
                        hot_buckets=hot_buckets)
        sides = [
            (left, partial(split, keys=self.kw.left_keys(),
                           replicate_hot=use_hot and not probe_is_left)),
            (right, partial(split, keys=self.kw.right_keys(),
                            replicate_hot=use_hot and probe_is_left)),
        ]
        reduce = partial(_merge_reduce, kw=self.kw, n_left=len(left))
        return shuffle(sides, n_red + hot_buckets, reduce)

    def required_input_columns(self, required_out):
        if required_out is None:
            return None
        lk, rk = set(self.kw.left_keys()), set(self.kw.right_keys())
        # suffix handling: require base names on both sides conservatively
        base = set()
        for c in required_out:
            base.add(c)
            for s in self.kw.suffixes:
                if s and c.endswith(s):
                    base.add(c[: -len(s)])
        return [base | lk, base | rk]


def _detect_hot_keys(ctx, left, right, lkeys, rkeys):
    """Find join keys whose estimated one-reducer bytes exceed
    ``chunk_limit``, from the *executed* probe chunks' real key
    frequencies. A hot key is handled with a broadcast of the build
    side's hot rows."""
    limit = ctx.cfg.chunk_limit
    hot: set = set()
    hot_bytes = 0
    for chunks, keys in ((left, lkeys), (right, rkeys)):
        probed = [c for c in chunks if c.meta.observed]
        if not probed:
            continue
        frac = len(probed) / len(chunks)
        counts: dict = {}
        bytes_per_row = None
        for c in probed:
            m = c.meta
            if m.nbytes and m.shape and m.shape[0]:
                bytes_per_row = m.nbytes / m.shape[0]
            payload = ctx.probe_payload(c.key)
            if payload is None:
                continue
            # composite keys count by groupby: same first-occurrence
            # order into the same sort as value_counts, so identical
            # top-20 lists, without building a tuple per row
            if len(keys) == 1:
                vc = payload[keys[0]].value_counts()
            else:
                vc = payload.groupby(keys, sort=False, dropna=False,
                                     observed=True).size()
                vc = vc.sort_values(ascending=False)
            for k, n in vc.head(20).items():
                counts[k] = counts.get(k, 0) + int(n)
        if bytes_per_row is None:
            continue
        for k, n in counts.items():
            est_rows = n / max(frac, 1e-9)
            est_bytes = est_rows * bytes_per_row
            if est_bytes > limit:
                hot.add(k)
                hot_bytes = max(hot_bytes, int(est_bytes))
    return (hot or None), hot_bytes


# --------------------------------------------------------------------------
# sort / dedup / scalar reductions
# --------------------------------------------------------------------------


def _sort(df, by, ascending):
    if isinstance(df, pd.Series):
        return df.sort_values(ascending=ascending)
    return df.sort_values(by, ascending=ascending, kind="mergesort")


def _sort_all(*parts, by, ascending):
    """Single-node sort of the concat of a chunk's inputs."""
    return _sort(_concat(*parts), by, ascending)


def _range_split(df, by, bounds, ascending):
    """Shuffle map of a sort: range-partition a chunk by sort-key
    quantile bounds into ``len(bounds) + 1`` buckets."""
    key = df[by[0]] if isinstance(by, list) else df[by]
    codes = np.searchsorted(bounds, key.to_numpy(), side="right")
    if not ascending:
        codes = len(bounds) - codes
    return _split_by_codes(df, codes, len(bounds) + 1)


def _range_sort(blocks, by, ascending):
    """Shuffle reduce of a sort: sort one range bucket."""
    return _sort(_concat_parts(blocks), by, ascending)


class SortValues(Operator):
    """``df.sort_values`` — single-node sort when the (observed) data is
    small, sample-based range shuffle otherwise."""

    def __init__(self, by, ascending=True) -> None:
        self.by = by if isinstance(by, list) else [by]
        self.ascending = ascending

    def tile(self, ctx: TileContext):
        cfg = ctx.cfg
        in_chunks = ctx.input_chunks(0)
        est = None
        # per-key ascending directions require a global sort; the range
        # shuffle orders on the first key only
        rangeable = not isinstance(self.ascending, (list, tuple))
        if cfg.dynamic_tiling and rangeable:
            probes = [c for c in in_chunks[:PROBE_CHUNKS] if not c.meta.observed]
            if probes:
                yield probes
            est = estimate_nbytes(in_chunks)
        if est is None or est <= cfg.chunk_limit or len(in_chunks) == 1:
            out = ChunkNode(op=Kernel(partial(_sort_all, by=self.by,
                                              ascending=self.ascending)),
                            inputs=list(in_chunks), index=(0, 0), meta=ChunkMeta())
            return [out]
        n_red = max(1, math.ceil(est / cfg.chunk_limit))
        bounds = self._sample_bounds(ctx, in_chunks, n_red)
        split = partial(_range_split, by=self.by, bounds=bounds,
                        ascending=self.ascending)
        reduce = partial(_range_sort, by=self.by, ascending=self.ascending)
        # bucket count must match what the mappers emit: quantile bounds
        # may dedup to fewer splits than requested
        return shuffle([(in_chunks, split)], len(bounds) + 1, reduce)

    def _sample_bounds(self, ctx, in_chunks, n_red):
        samples = []
        for c in in_chunks:
            payload = ctx.probe_payload(c.key)
            if payload is not None and len(payload):
                samples.append(payload[self.by[0]])
        if not samples:
            return np.array([])
        s = pd.concat(samples)
        qs = np.linspace(0, 1, n_red + 1)[1:-1]
        return np.unique(s.quantile(qs, interpolation="nearest").to_numpy())


def _gather_apply(*parts, fn: Callable):
    """Gather all input chunks onto one node and apply ``fn`` — the
    implementation of operators whose semantics are inherently global
    (``pivot`` reshapes, final ``value_counts`` ordering). Memory-risky
    by design: this is the operation Dask/Modin refuse; Xorbits supports
    it and the meter charges it honestly."""
    return fn(_concat(*parts))


class MapGather(Operator):
    """Tileable op: concat every chunk of the input, apply ``fn``."""

    def __init__(self, fn: Callable, name: str = "gather") -> None:
        self.fn = fn
        self.name = name

    def tile(self, ctx: TileContext):
        out = ChunkNode(
            op=Combine(partial(_gather_apply, fn=self.fn)),
            inputs=list(ctx.input_chunks(0)), index=(0, 0), meta=ChunkMeta(),
        )
        return [out]


def _dedup(*parts, subset):
    """Drop duplicate rows of the concat of a chunk's inputs: the map
    and the combine kernel of ``drop_duplicates``."""
    df = _concat(*parts)
    if isinstance(df, pd.Series):
        return df.drop_duplicates()
    return df.drop_duplicates(subset=subset)


class DropDuplicates(Operator):
    """Tree map-dedup → combine-dedup; a non-static operator the paper
    lists explicitly (Section IV-A)."""

    def __init__(self, subset=None) -> None:
        self.subset = subset

    def tile(self, ctx: TileContext):
        dedup = partial(_dedup, subset=self.subset)
        return [tree_reduce(ctx, ctx.input_chunks(0), dedup, dedup, dedup)]

    def required_input_columns(self, required_out):
        if required_out is None or self.subset is None:
            return None
        return [set(required_out) | set(self.subset)]


def _scalar_map(s, func: str):
    """Per-chunk partial of a whole-series reduction."""
    if func == "mean":
        return (float(s.sum()), int(s.count()))
    if func == "nunique":
        return set(pd.unique(s.dropna()))
    if func == "count":
        return int(s.count())
    if func == "size":
        return int(len(s))
    return getattr(s, func)()


def _scalar_reduce(*parts, func: str):
    """Fold the ``_scalar_map`` partials of every chunk to the scalar."""
    if func == "mean":
        tot = sum(p[0] for p in parts)
        cnt = sum(p[1] for p in parts)
        return tot / cnt if cnt else float("nan")
    if func == "nunique":
        out = set()
        for p in parts:
            out |= p
        return len(out)
    if func in ("sum", "count", "size"):
        return sum(parts)
    if func in ("min", "max"):
        # skipna: an empty chunk's partial is NaN/NaT, and comparisons
        # with it depend on order
        found = [p for p in parts if not pd.isna(p)]
        return (min if func == "min" else max)(found) if found else parts[0]
    raise ValueError(func)


class ScalarAgg(Operator):
    """Whole-series reduction to a scalar (``s.sum()``, ``s.mean()``...)."""

    def __init__(self, func: str) -> None:
        self.func = func

    def tile(self, ctx: TileContext):
        """Map every chunk, then one flat gather (no combine tree)."""
        maps = map_chunks(ctx.input_chunks(0), partial(_scalar_map, func=self.func))
        out = ChunkNode(op=Combine(partial(_scalar_reduce, func=self.func)),
                        inputs=maps, index=(0, 0), meta=ChunkMeta())
        return [out]
