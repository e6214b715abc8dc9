"""DataFrame operators (paper Sections III-C, IV).

Implements the multi-stage map–combine–reduce model for ``groupby.agg``,
the dynamic-tiling paths for ``merge`` (broadcast / shuffle / skew),
``sort_values`` (single node / range shuffle) and ``iloc`` (the paper's
4-8-5 filtered-chunk example), and the 1:1 projection, filter and rename
operators that graph- and operator-level fusion later merge into
subtasks (their ``tile`` is the shared row-aligned default of
:class:`~.base.Operator`). Every shuffle is built by
:func:`~.base.shuffle`; groupby, merge and sort supply only its split
and reduce kernels, module-level functions bound to their parameters
with ``functools.partial``, so a shipped reducer pickles to a function
reference plus a few keys.

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

from ..automerge import combine_tree
from ..chunk import (Buckets, ChunkMeta, ChunkNode, estimate_nbytes,
                     payload_nbytes)
from ..reduce_select import choose_reduce
from .base import DataChunk, Operator, TileContext, shuffle

# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

ALGEBRAIC_FUNCS = {"sum", "count", "min", "max", "mean", "size"}

#: how many head chunks dynamic tiling executes to collect metadata
#: ("runs the operator on the first few chunks", paper Section IV-B)
PROBE_CHUNKS = 2


def split_pandas(pdf: pd.DataFrame, max_bytes: int) -> list[pd.DataFrame]:
    """Row-split ``pdf`` into pieces of at most ~``max_bytes`` each; a
    zero-row frame is one zero-row piece, which keeps its schema."""
    total = payload_nbytes(pdf)
    n = max(1, math.ceil(total / max(1, max_bytes)))
    n = min(n, max(1, len(pdf)))
    bounds = np.linspace(0, len(pdf), n + 1).astype(int)
    return [pdf.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _empty_like(pdf):
    """A zero-row copy of ``pdf`` with its columns and dtypes. Built by
    ``take``, so it owns fresh arrays: a zero-row ``iloc`` slice would
    keep the whole input alive through its base arrays."""
    return pdf.iloc[np.empty(0, dtype=np.intp)]


def _split_by_codes(pdf, codes: np.ndarray, total: int) -> Buckets:
    """Split ``pdf`` by per-row bucket ``codes`` in ``range(total)``,
    keeping only the non-empty buckets; rows keep their input order
    inside a bucket. One stable sort + boundary slicing: O(rows log
    rows), independent of the bucket count (a per-bucket mask scan is
    O(rows × buckets))."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(total + 1))
    reordered = pdf.iloc[order]
    return Buckets(
        {r: reordered.iloc[bounds[r]:bounds[r + 1]]
         for r in np.flatnonzero(np.diff(bounds)).tolist()},
        _empty_like(pdf),
    )


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
    if len(pdf) == 0 or n <= 1:
        return Buckets({0: pdf} if len(pdf) else {}, _empty_like(pdf))
    if len(on) == 1:
        h = pd.util.hash_pandas_object(pdf[on[0]], index=False)
    else:
        h = pd.util.hash_pandas_object(
            pdf[on].astype(object).apply(tuple, axis=1), index=False
        )
    return _split_by_codes(pdf, (h % n).to_numpy(), total)


def _concat_parts(parts: list) -> pd.DataFrame:
    """Concat shuffle parts, skipping empties (they only carry schema)."""
    nonempty = [p for p in parts if len(p)]
    if not nonempty:
        return parts[0]
    if len(nonempty) == 1:
        return nonempty[0]
    return pd.concat(nonempty)


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

    def __init__(self, pdf: Any, chunk_bytes: Optional[int] = None) -> None:
        self.pdf = pdf
        self.chunk_bytes = chunk_bytes
        self.pruned_columns: Optional[list] = None  # set by column pruning

    def tile(self, ctx: TileContext):
        pdf = self.pdf
        if self.pruned_columns is not None and isinstance(pdf, pd.DataFrame):
            # the pruner is conservative about suffixed/derived names;
            # keep only columns the source actually has
            keep = [c for c in pdf.columns if c in set(self.pruned_columns)]
            pdf = pdf[keep]
        limit = self.chunk_bytes or ctx.cfg.chunk_limit
        if isinstance(pdf, pd.Series):
            pieces = [
                p["__s__"].rename(pdf.name)
                for p in split_pandas(pdf.to_frame("__s__"), limit)
            ]
        else:
            pieces = split_pandas(pdf, limit)
        chunks = [
            ChunkNode(op=DataChunk(p), inputs=[], index=(i, 0),
                      meta=ChunkMeta.from_payload(p))
            for i, p in enumerate(pieces)
        ]
        return [chunks]

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

    def execute_chunk(self, inputs, chunk):
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

    def execute_chunk(self, inputs, chunk):
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

    def execute_chunk(self, inputs, chunk):
        df, mask = inputs
        return df[np.asarray(mask, dtype=bool)]

    def required_input_columns(self, required_out):
        return [set(required_out) if required_out is not None else None, None]


class Rename(Operator):
    elementwise = True
    preserves_shape = True

    def __init__(self, columns: dict) -> None:
        self.columns = columns

    def execute_chunk(self, inputs, chunk):
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


class ConcatChunks(Operator):
    """Chunk-level row concat of its inputs — the paper's ``Concat``
    node in the combine stage and in auto merge."""

    def execute_chunk(self, inputs, chunk):
        if len(inputs) == 1:
            return inputs[0]
        return pd.concat(inputs)


class Concat(Operator):
    """Tileable-level row concat of several frames."""

    def tile(self, ctx: TileContext):
        chunks = []
        r = 0
        for i in range(len(ctx.inputs)):
            for c in ctx.input_chunks(i):
                chunks.append(ChunkNode(op=_Identity(), inputs=[c], index=(r, 0),
                                        meta=ChunkMeta(shape=c.meta.shape)))
                r += 1
        return [chunks]


class _Identity(Operator):
    elementwise = True

    def execute_chunk(self, inputs, chunk):
        return inputs[0]


class ILocChunk(Operator):
    """Chunk-level positional slice/pick."""

    def __init__(self, item: Any) -> None:
        self.item = item

    def execute_chunk(self, inputs, chunk):
        return inputs[0].iloc[self.item]


class ILoc(Operator):
    """Positional row access — the paper's iterative-tiling showcase.

    With dynamic tiling, the chunk lengths of the (possibly filtered)
    input are unknown: we ``yield`` the input chunks, read the real
    lengths execution recorded on them, and then attach an
    ``ILocChunk`` to exactly the chunk(s) containing the requested rows
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
                gather = ChunkNode(op=ConcatChunks(), inputs=list(in_chunks),
                                   index=(0, 0), meta=ChunkMeta())
                out = ChunkNode(op=ILocChunk(self.item), inputs=[gather],
                                index=(0, 0), meta=ChunkMeta())
                return [[out]]
        lengths = [c.meta.shape[0] for c in in_chunks]
        offsets = np.cumsum([0] + lengths)
        total = int(offsets[-1])
        if isinstance(self.item, int):
            pos = self.item if self.item >= 0 else total + self.item
            if not 0 <= pos < total:
                raise IndexError(f"iloc index {self.item} out of bounds ({total} rows)")
            ci = int(np.searchsorted(offsets, pos, side="right") - 1)
            local = pos - int(offsets[ci])
            out = ChunkNode(op=ILocChunk(local), inputs=[in_chunks[ci]],
                            index=(0, 0), meta=ChunkMeta())
            return [[out]]
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
            chunks.append(ChunkNode(op=ILocChunk(local), inputs=[in_chunks[ci]],
                                    index=(r, 0), meta=ChunkMeta()))
            r += 1
        if not chunks:
            empty = ChunkNode(op=ILocChunk(slice(0, 0)), inputs=[in_chunks[0]],
                              index=(0, 0), meta=ChunkMeta())
            chunks = [empty]
        return [chunks]


class Head(ILoc):
    """``df.head(n)`` — an iloc slice."""

    def __init__(self, n: int) -> None:
        super().__init__(slice(0, n))


# --------------------------------------------------------------------------
# groupby.agg — map / combine / reduce with auto reduce selection
# --------------------------------------------------------------------------


class _AggMap(Operator):
    """Map stage: per-chunk partial aggregation (algebraic funcs are
    decomposed, e.g. mean → sum + count)."""

    def __init__(self, keys: list[str], specs: list[tuple], series_name=None) -> None:
        self.keys = keys
        self.specs = specs  # normalized (out, col, func)
        self.series_name = series_name

    def execute_chunk(self, inputs, chunk):
        df = inputs[0]
        if isinstance(df, pd.Series):
            df = df.to_frame(self.series_name or df.name or "__val__")
        g = df.groupby(self.keys, sort=False, observed=True)
        parts = {}
        for i, (_out, col, func) in enumerate(self.specs):
            src = g[col] if col is not None else g[df.columns.difference(self.keys)[0]]
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
    """Merge ``_AggMap`` partial frames group by group."""
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


class _AggCombine(Operator):
    """Combine stage: merge a subset of partial results (pre-aggregation
    that keeps any one node's gather small — paper Section III-C)."""

    no_fuse_in = True

    def execute_chunk(self, inputs, chunk):
        return _combine_partials(inputs, sort=False)


class _AggFinalize(Operator):
    """Reduce stage of the tree path: combine + finalize to user columns."""

    no_fuse_in = True

    def __init__(self, keys, specs, layout: str) -> None:
        self.keys = keys
        self.specs = specs
        self.layout = layout

    def execute_chunk(self, inputs, chunk):
        df = _combine_partials(inputs, sort=True)
        out = {}
        for i, (out_name, _col, func) in enumerate(self.specs):
            if func == "mean":
                out[out_name] = df[f"{i}__sum"] / df[f"{i}__count"]
            elif func == "size":
                out[out_name] = df[f"{i}__size"]
            else:
                out[out_name] = df[f"{i}__{func}"]
        return _user_layout(pd.DataFrame(out), self.keys, self.layout)


def _agg_split(df, keys, specs, n, algebraic, series_name):
    """Shuffle map of a groupby: partial-agg (algebraic) or raw rows
    (general funcs), hash-split by group key into ``n`` buckets."""
    if isinstance(df, pd.Series):
        df = df.to_frame(series_name or df.name or "__val__")
    if algebraic:
        df = _AggMap(keys, specs, series_name).execute_chunk([df], None).reset_index()
    return hash_partition(df, keys, n)


def _agg_reduce(blocks, keys, specs, layout, algebraic):
    """Shuffle reduce of a groupby: final aggregate of one bucket with
    full pandas semantics (supports non-algebraic funcs like
    ``nunique`` / ``median``)."""
    df = _concat_parts(blocks)
    if algebraic:
        fin = _AggFinalize(keys, specs, layout)
        return fin.execute_chunk([df.set_index(keys)], None)
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

        probe_meta = None
        if cfg.dynamic_tiling and self.algebraic:
            # Run the map stage on the first few chunks to observe the
            # aggregation ratio (paper Fig. 5): build a temporary chunk
            # graph, yield it for execution, read back real sizes. The
            # probed *inputs* are requested too — they are fused
            # intermediates otherwise, and the ratio needs their size.
            k = min(PROBE_CHUNKS, len(in_chunks))
            probes = [
                ChunkNode(op=_AggMap(self.keys, specs, self.series_name),
                          inputs=[c], index=(i, 0), meta=ChunkMeta())
                for i, c in enumerate(in_chunks[:k])
            ]
            yield probes + list(in_chunks[:k])
            probe_meta = (probes, in_chunks[:k])

        mode, n_reducers, est_out = choose_reduce(
            ctx, in_chunks, probe_meta, algebraic=self.algebraic
        )
        ctx.stats.reduce_choices[f"{ctx.key}:GroupByAgg:{','.join(self.keys)}"] = mode

        if mode == "tree":
            maps = []
            if probe_meta is not None:
                maps.extend(probe_meta[0])
                rest = in_chunks[len(probe_meta[0]):]
            else:
                rest = in_chunks
            maps.extend(
                ChunkNode(op=_AggMap(self.keys, specs, self.series_name),
                          inputs=[c], index=(len(maps) + i, 0), meta=ChunkMeta())
                for i, c in enumerate(rest)
            )
            final = partial(_AggFinalize, self.keys, specs, self.layout)
            return [[combine_tree(ctx, maps, _AggCombine, final)]]

        split = partial(_agg_split, keys=self.keys, specs=specs, n=n_reducers,
                        algebraic=self.algebraic, series_name=self.series_name)
        reduce = partial(_agg_reduce, keys=self.keys, specs=specs,
                         layout=self.layout, algebraic=self.algebraic)
        return [shuffle([(in_chunks, split)], n_reducers, reduce)]

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


class _MergeBroadcast(Operator):
    """One big-side chunk merged against the whole (concatenated) small
    side — chosen when dynamic tiling observes a tiny build side (the
    TPCx-AI UC10 imbalance case)."""

    def __init__(self, kw: _MergeKw, small_side: str) -> None:
        self.kw = kw
        self.small_side = small_side  # "left" | "right"

    def execute_chunk(self, inputs, chunk):
        big, small_parts = inputs[0], inputs[1:]
        small = pd.concat(small_parts) if len(small_parts) > 1 else small_parts[0]
        if self.small_side == "right":
            return big.merge(small, **self.kw.pandas_kwargs())
        return small.merge(big, **self.kw.pandas_kwargs())


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
    cold = df.iloc[np.flatnonzero(~hot_mask)]
    hot = df.iloc[np.flatnonzero(hot_mask)]
    out = hash_partition(cold, keys, n, total=total)
    if len(hot):
        if replicate_hot:
            for r in range(n, total):
                out[r] = pd.concat([out.get(r, out.empty), hot])
        else:
            assign = np.arange(len(hot)) % hot_buckets
            for b in range(hot_buckets):
                part = hot.iloc[np.flatnonzero(assign == b)]
                if len(part):
                    out[n + b] = pd.concat([out.get(n + b, out.empty), part])
    return out


def _merge_reduce(blocks, kw: _MergeKw, n_left: int):
    """Shuffle reduce of a merge: the first ``n_left`` blocks are the left
    side's. The executor hands every bucket a mapper did not store as
    that mapper's zero-row ``empty``, so both sides' column structure is
    always here; merging empty sides yields the right output columns."""
    left = _concat_parts(blocks[:n_left])
    right = _concat_parts(blocks[n_left:])
    return left.merge(right, **kw.pandas_kwargs())


class Merge(Operator):
    """``df.merge(other)`` with dynamic broadcast/shuffle/skew selection
    (Sections IV-C, VI-B)."""

    def __init__(self, **kwargs) -> None:
        self.kw = _MergeKw(**kwargs)

    def tile(self, ctx: TileContext):
        cfg = ctx.cfg
        left = ctx.input_chunks(0)
        right = ctx.input_chunks(1)
        lkeys, rkeys = self.kw.left_keys(), self.kw.right_keys()
        op_key = f"{ctx.key}:merge:{lkeys}/{rkeys}"

        est_l = est_r = None
        hot_keys: Optional[frozenset] = None
        hot_bytes = 0
        if cfg.dynamic_tiling:
            probes = [c for c in left[:PROBE_CHUNKS] + right[:PROBE_CHUNKS]
                      if not c.meta.observed]
            if probes:
                yield probes
            est_l = estimate_nbytes(left)
            est_r = estimate_nbytes(right)
            hot_keys, hot_bytes = _detect_hot_keys(ctx, left, right, lkeys, rkeys)

        # --- broadcast path -------------------------------------------
        if cfg.dynamic_tiling and est_l is not None and est_r is not None:
            small_side = None
            if est_r <= cfg.broadcast_threshold and self.kw.how in ("inner", "left"):
                small_side = "right"
            elif est_l <= cfg.broadcast_threshold and self.kw.how in ("inner", "right"):
                small_side = "left"
            if small_side is not None:
                big, small = (left, right) if small_side == "right" else (right, left)
                ctx.stats.merge_choices[op_key] = "broadcast"
                chunks = [
                    ChunkNode(op=_MergeBroadcast(self.kw, small_side),
                              inputs=[b] + list(small), index=(i, 0), meta=ChunkMeta())
                    for i, b in enumerate(big)
                ]
                return [chunks]

        # --- shuffle path ---------------------------------------------
        if cfg.dynamic_tiling and est_l is not None and est_r is not None:
            n_red = max(1, math.ceil((est_l + est_r) / cfg.chunk_limit))
        else:
            n_red = cfg.static_shuffle_partitions or max(len(left), len(right))
        hot_buckets = 0
        use_hot = bool(hot_keys) and cfg.dynamic_tiling
        if use_hot:
            hot_buckets = max(1, math.ceil(hot_bytes / cfg.chunk_limit))
            ctx.stats.merge_choices[op_key] = "skew"
        elif cfg.dynamic_tiling:
            ctx.stats.merge_choices[op_key] = "shuffle"
        hot_fs = frozenset(hot_keys) if use_hot else None
        # probe side = the preserved/larger side (left for how='left');
        # build side replicates its hot rows to every hot bucket.
        probe_is_left = self.kw.how in ("left", "inner")
        split = partial(_merge_split, n=n_red, hot_keys=hot_fs,
                        hot_buckets=hot_buckets)
        sides = [
            (left, partial(split, keys=lkeys,
                           replicate_hot=use_hot and not probe_is_left)),
            (right, partial(split, keys=rkeys,
                            replicate_hot=use_hot and probe_is_left)),
        ]
        reduce = partial(_merge_reduce, kw=self.kw, n_left=len(left))
        return [shuffle(sides, n_red + hot_buckets, reduce)]

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
    """Find join keys whose estimated one-reducer bytes exceed the skew
    limit, from the *executed* probe chunks' real key frequencies."""
    cfg = ctx.cfg
    limit = cfg.resolved_skew_key_limit()
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


class _SortChunk(Operator):
    def __init__(self, by, ascending) -> None:
        self.by = by
        self.ascending = ascending

    def execute_chunk(self, inputs, chunk):
        df = pd.concat(inputs) if len(inputs) > 1 else inputs[0]
        return _sort(df, self.by, self.ascending)


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
            out = ChunkNode(op=_SortChunk(self.by, self.ascending),
                            inputs=list(in_chunks), index=(0, 0), meta=ChunkMeta())
            return [[out]]
        n_red = max(1, math.ceil(est / cfg.chunk_limit))
        bounds = self._sample_bounds(ctx, in_chunks, n_red)
        split = partial(_range_split, by=self.by, bounds=bounds,
                        ascending=self.ascending)
        reduce = partial(_range_sort, by=self.by, ascending=self.ascending)
        # bucket count must match what the mappers emit: quantile bounds
        # may dedup to fewer splits than requested
        return [shuffle([(in_chunks, split)], len(bounds) + 1, reduce)]

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


class _GatherApply(Operator):
    """Gather all input chunks onto one node and apply ``fn`` — the
    implementation of operators whose semantics are inherently global
    (``pivot`` reshapes, final ``value_counts`` ordering). Memory-risky
    by design: this is the operation Dask/Modin refuse; Xorbits supports
    it and the meter charges it honestly."""

    no_fuse_in = True

    def __init__(self, fn: Callable, name: str = "gather") -> None:
        self.fn = fn
        self.name = name

    def execute_chunk(self, inputs, chunk):
        df = pd.concat(inputs) if len(inputs) > 1 else inputs[0]
        return self.fn(df)


class MapGather(Operator):
    """Tileable op: concat every chunk of the input, apply ``fn``."""

    def __init__(self, fn: Callable, name: str = "gather") -> None:
        self.fn = fn
        self.name = name

    def tile(self, ctx: TileContext):
        out = ChunkNode(
            op=_GatherApply(self.fn, self.name),
            inputs=list(ctx.input_chunks(0)), index=(0, 0), meta=ChunkMeta(),
        )
        return [[out]]


class _DedupMap(Operator):
    def __init__(self, subset) -> None:
        self.subset = subset

    def execute_chunk(self, inputs, chunk):
        df = inputs[0]
        if isinstance(df, pd.Series):
            return df.drop_duplicates()
        return df.drop_duplicates(subset=self.subset)


class _DedupReduce(_DedupMap):
    """Dedup the concat of its inputs: ``_DedupMap``'s kernel."""

    no_fuse_in = True

    def execute_chunk(self, inputs, chunk):
        return super().execute_chunk([pd.concat(inputs)], chunk)


class DropDuplicates(Operator):
    """Tree map-dedup → combine-dedup; a non-static operator the paper
    lists explicitly (Section IV-A)."""

    def __init__(self, subset=None) -> None:
        self.subset = subset

    def tile(self, ctx: TileContext):
        maps = [
            ChunkNode(op=_DedupMap(self.subset), inputs=[c], index=(i, 0),
                      meta=ChunkMeta())
            for i, c in enumerate(ctx.input_chunks(0))
        ]
        reduce = partial(_DedupReduce, self.subset)
        return [[combine_tree(ctx, maps, reduce, reduce)]]

    def required_input_columns(self, required_out):
        if required_out is None or self.subset is None:
            return None
        return [set(required_out) | set(self.subset)]


class _ScalarMap(Operator):
    def __init__(self, func: str) -> None:
        self.func = func

    def execute_chunk(self, inputs, chunk):
        s = inputs[0]
        f = self.func
        if f == "mean":
            return (float(s.sum()), int(s.count()))
        if f == "nunique":
            return set(pd.unique(s.dropna()))
        if f == "count":
            return int(s.count())
        if f == "size":
            return int(len(s))
        return getattr(s, f)()


class _ScalarReduce(Operator):
    no_fuse_in = True

    def __init__(self, func: str) -> None:
        self.func = func

    def execute_chunk(self, inputs, chunk):
        f = self.func
        if f == "mean":
            tot = sum(p[0] for p in inputs)
            cnt = sum(p[1] for p in inputs)
            return tot / cnt if cnt else float("nan")
        if f == "nunique":
            out = set()
            for p in inputs:
                out |= p
            return len(out)
        if f in ("sum", "count", "size"):
            return sum(inputs)
        if f in ("min", "max"):
            # skipna: an empty chunk's partial is NaN/NaT, and comparisons
            # with it depend on order
            found = [p for p in inputs if not pd.isna(p)]
            return (min if f == "min" else max)(found) if found else inputs[0]
        raise ValueError(f)


class ScalarAgg(Operator):
    """Whole-series reduction to a scalar (``s.sum()``, ``s.mean()``...)."""

    def __init__(self, func: str) -> None:
        self.func = func

    def tile(self, ctx: TileContext):
        maps = [
            ChunkNode(op=_ScalarMap(self.func), inputs=[c], index=(i, 0),
                      meta=ChunkMeta())
            for i, c in enumerate(ctx.input_chunks(0))
        ]
        out = ChunkNode(op=_ScalarReduce(self.func), inputs=maps, index=(0, 0),
                        meta=ChunkMeta())
        return [[out]]
