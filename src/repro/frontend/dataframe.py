"""``xpd``: the pandas-identical lazy DataFrame/Series frontend.

Mirrors ``import xorbits.pandas as pd`` (paper Listing 2): every method
builds a tileable-graph node via the operator's ``__call__`` path;
nothing executes until a result is *needed* — ``__repr__``,
``to_pandas``, ``len``, or a scalar aggregate — the paper's "deferred
evaluation" (Section IV-C). Users never see chunks, partitions, or
repartition calls.
"""
from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np
import pandas as pd

from repro.core.operators.base import Elementwise, Tileable
from repro.core.operators import dataframe as ops

from .session import XSession, get_session

NamedAgg = pd.NamedAgg


# --------------------------------------------------------------------------
# lazy wrappers
# --------------------------------------------------------------------------


class _Lazy:
    """Shared deferred-evaluation plumbing for DataFrame and Series."""

    def __init__(self, tileable: Tileable, session: Optional[XSession] = None) -> None:
        self._t = tileable
        self._session = session or get_session()
        self._cache: Any = None

    # -- deferred evaluation -------------------------------------------
    def execute(self):
        """Materialise (idempotent); returns self for chaining."""
        if self._cache is None:
            (self._cache,) = self._session.run(self._t)
        return self

    def to_pandas(self):
        self.execute()
        return self._cache

    def __repr__(self) -> str:
        # printing triggers execution without the user noticing —
        # the paper's deferred evaluation
        return repr(self.to_pandas())

    def __len__(self) -> int:
        return len(self.to_pandas())

    # -- graph-building helpers ----------------------------------------
    def _elementwise(self, func, others: Sequence["_Lazy"] = (), kind=None,
                     name="elementwise", columns_hint=None,
                     preserves_shape=True):
        op = Elementwise(func, name=name, preserves_shape=preserves_shape)
        t = op.new_tileable(
            [self._t] + [o._t for o in others],
            kind=kind or self._t.kind,
            columns_hint=columns_hint,
        )
        cls = DataFrame if (kind or self._t.kind) == "dataframe" else Series
        return cls(t, self._session)


class Series(_Lazy):
    """Lazy distributed Series."""

    kind = "series"

    # -- comparisons → boolean mask series -----------------------------
    def _binop(self, other, fn, name):
        if isinstance(other, _Lazy):
            return self._elementwise(fn, [other], kind="series", name=name)
        return self._elementwise(lambda s: fn(s, other), kind="series", name=name)

    def __lt__(self, o):
        return self._binop(o, lambda a, b: a < b, "lt")

    def __le__(self, o):
        return self._binop(o, lambda a, b: a <= b, "le")

    def __gt__(self, o):
        return self._binop(o, lambda a, b: a > b, "gt")

    def __ge__(self, o):
        return self._binop(o, lambda a, b: a >= b, "ge")

    def __eq__(self, o):  # type: ignore[override]
        return self._binop(o, lambda a, b: a == b, "eq")

    def __ne__(self, o):  # type: ignore[override]
        return self._binop(o, lambda a, b: a != b, "ne")

    __hash__ = None  # mutable-like; matches pandas behaviour

    # -- arithmetic -----------------------------------------------------
    def __add__(self, o):
        return self._binop(o, lambda a, b: a + b, "add")

    def __radd__(self, o):
        return self._binop(o, lambda a, b: b + a, "radd")

    def __sub__(self, o):
        return self._binop(o, lambda a, b: a - b, "sub")

    def __rsub__(self, o):
        return self._binop(o, lambda a, b: b - a, "rsub")

    def __mul__(self, o):
        return self._binop(o, lambda a, b: a * b, "mul")

    def __rmul__(self, o):
        return self._binop(o, lambda a, b: b * a, "rmul")

    def __truediv__(self, o):
        return self._binop(o, lambda a, b: a / b, "div")

    def __rtruediv__(self, o):
        return self._binop(o, lambda a, b: b / a, "rdiv")

    def __floordiv__(self, o):
        return self._binop(o, lambda a, b: a // b, "floordiv")

    def __mod__(self, o):
        return self._binop(o, lambda a, b: a % b, "mod")

    def __neg__(self):
        return self._elementwise(lambda s: -s, name="neg")

    # -- boolean logic --------------------------------------------------
    def __and__(self, o):
        return self._binop(o, lambda a, b: a & b, "and")

    def __or__(self, o):
        return self._binop(o, lambda a, b: a | b, "or")

    def __invert__(self):
        return self._elementwise(lambda s: ~s, name="invert")

    # -- elementwise methods --------------------------------------------
    def isin(self, values) -> "Series":
        values = list(values)
        return self._elementwise(lambda s: s.isin(values), name="isin")

    def fillna(self, value) -> "Series":
        return self._elementwise(lambda s: s.fillna(value), name="fillna")

    def isna(self) -> "Series":
        return self._elementwise(lambda s: s.isna(), name="isna")

    def notna(self) -> "Series":
        return self._elementwise(lambda s: s.notna(), name="notna")

    def astype(self, dtype) -> "Series":
        return self._elementwise(lambda s: s.astype(dtype), name="astype")

    def round(self, n=0) -> "Series":
        return self._elementwise(lambda s: s.round(n), name="round")

    def abs(self) -> "Series":
        return self._elementwise(lambda s: s.abs(), name="abs")

    def rename(self, name) -> "Series":
        return self._elementwise(lambda s: s.rename(name), name="rename")

    def to_frame(self, name=None) -> "DataFrame":
        return self._elementwise(
            lambda s: s.to_frame(name) if name else s.to_frame(),
            kind="dataframe", name="to_frame",
        )

    @property
    def dt(self) -> "_DtAccessor":
        return _DtAccessor(self)

    @property
    def str(self) -> "_StrAccessor":
        return _StrAccessor(self)

    # -- reductions (eager: a scalar is needed *now*) -------------------
    def _scalar(self, func: str):
        op = ops.ScalarAgg(func)
        t = op.new_tileable([self._t], kind="scalar")
        (val,) = self._session.run(t)
        return val

    def sum(self):
        return self._scalar("sum")

    def mean(self):
        return self._scalar("mean")

    def min(self):
        return self._scalar("min")

    def max(self):
        return self._scalar("max")

    def count(self):
        return self._scalar("count")

    def nunique(self):
        return self._scalar("nunique")

    def unique(self) -> np.ndarray:
        op = ops.DropDuplicates()
        t = op.new_tileable([self._t], kind="series")
        (s,) = self._session.run(t)
        return s.to_numpy() if hasattr(s, "to_numpy") else np.asarray(s)

    def drop_duplicates(self) -> "Series":
        op = ops.DropDuplicates()
        return Series(op.new_tileable([self._t], kind="series"), self._session)

    def sort_values(self, ascending: bool = True) -> "Series":
        # series sort: single-chunk gather (series results are small in
        # our workloads)
        op = ops.MapGather(lambda s: s.sort_values(ascending=ascending),
                           name="sort_values")
        return Series(op.new_tileable([self._t], kind="series"), self._session)

    def value_counts(self, ascending: bool = False) -> "Series":
        """Distributed: per-chunk counts tree-reduced, globally sorted."""
        name = "count"

        def per_chunk(s: pd.Series) -> pd.Series:
            return s.value_counts()

        op_map = Elementwise(per_chunk, name="value_counts.map",
                             preserves_shape=False)
        partial = Series(op_map.new_tileable([self._t], kind="series"),
                         self._session)

        def combine(s: pd.Series) -> pd.Series:
            out = s.groupby(level=0).sum().sort_values(ascending=ascending)
            out.name = name
            return out

        op = ops.MapGather(combine, name="value_counts")
        return Series(op.new_tileable([partial._t], kind="series"), self._session)

    def head(self, n: int = 5) -> "Series":
        op = ops.Head(n)
        return Series(op.new_tileable([self._t], kind="series"), self._session)

    @property
    def iloc(self) -> "_ILoc":
        return _ILoc(self, series=True)

    @property
    def values(self) -> np.ndarray:
        return self.to_pandas().to_numpy()


class _DtAccessor:
    def __init__(self, s: Series) -> None:
        self._s = s

    @property
    def year(self) -> Series:
        return self._s._elementwise(lambda s: s.dt.year, name="dt.year")

    @property
    def month(self) -> Series:
        return self._s._elementwise(lambda s: s.dt.month, name="dt.month")

    @property
    def quarter(self) -> Series:
        return self._s._elementwise(lambda s: s.dt.quarter, name="dt.quarter")

    @property
    def dayofweek(self) -> Series:
        return self._s._elementwise(lambda s: s.dt.dayofweek, name="dt.dayofweek")

    @property
    def hour(self) -> Series:
        return self._s._elementwise(lambda s: s.dt.hour, name="dt.hour")


class _StrAccessor:
    def __init__(self, s: Series) -> None:
        self._s = s

    def startswith(self, prefix: str) -> Series:
        return self._s._elementwise(lambda s: s.str.startswith(prefix), name="str.startswith")

    def contains(self, pat: str, regex: bool = False) -> Series:
        return self._s._elementwise(
            lambda s: s.str.contains(pat, regex=regex), name="str.contains"
        )

    def slice(self, start=None, stop=None) -> Series:
        return self._s._elementwise(lambda s: s.str.slice(start, stop), name="str.slice")


class _ILoc:
    """``.iloc`` indexer — int and row-slice support via iterative tiling
    (the very API Dask cannot offer; paper Listing 1)."""

    def __init__(self, obj: "_Lazy", series: bool = False) -> None:
        self._obj = obj
        self._series = series

    def __getitem__(self, item):
        op = ops.ILoc(item)
        if isinstance(item, int):
            # a single row materialises immediately (pandas returns a
            # Series for df.iloc[i], a scalar for s.iloc[i])
            t = op.new_tileable([self._obj._t], kind="scalar")
            (row,) = self._obj._session.run(t)
            return row
        kind = "series" if self._series else "dataframe"
        t = op.new_tileable([self._obj._t], kind=kind)
        cls = Series if self._series else DataFrame
        return cls(t, self._obj._session)


class DataFrame(_Lazy):
    """Lazy distributed DataFrame."""

    kind = "dataframe"

    # -- projection / selection ----------------------------------------
    def __getitem__(self, item):
        if isinstance(item, Series):  # boolean mask
            op = ops.Filter()
            t = op.new_tileable(
                [self._t, item._t], kind="dataframe",
                columns_hint=self._t.columns_hint,
            )
            return DataFrame(t, self._session)
        op = ops.GetItem(item)
        if isinstance(item, list):
            t = op.new_tileable([self._t], kind="dataframe", columns_hint=list(item))
            return DataFrame(t, self._session)
        t = op.new_tileable([self._t], kind="series")
        return Series(t, self._session)

    def __setitem__(self, name: str, value) -> None:
        new = self.assign(**{name: value})
        self._t = new._t
        self._cache = None

    def assign(self, **kwargs) -> "DataFrame":
        names, values, inputs = [], [], [self._t]
        for name, v in kwargs.items():
            names.append(name)
            if isinstance(v, _Lazy):
                values.append(ops.InputRef(len(inputs)))
                inputs.append(v._t)
            else:
                values.append(v)
        op = ops.SetColumns(names, values)
        hint = None
        if self._t.columns_hint is not None:
            hint = list(self._t.columns_hint) + [
                n for n in names if n not in self._t.columns_hint
            ]
        t = op.new_tileable(inputs, kind="dataframe", columns_hint=hint)
        return DataFrame(t, self._session)

    @property
    def columns(self) -> pd.Index:
        if self._t.columns_hint is not None:
            return pd.Index(self._t.columns_hint)
        return self.to_pandas().columns

    # -- relational ops -------------------------------------------------
    def merge(
        self,
        right: "DataFrame",
        on=None,
        left_on=None,
        right_on=None,
        how: str = "inner",
        suffixes=("_x", "_y"),
        sort: bool = False,
    ) -> "DataFrame":
        if sort:
            merged = self.merge(right, on=on, left_on=left_on,
                                right_on=right_on, how=how, suffixes=suffixes)
            keys = [on] if isinstance(on, str) else list(on or left_on or [])
            keys = [keys] if isinstance(keys, str) else keys
            return merged.sort_values(keys)
        op = ops.Merge(on=on, left_on=left_on, right_on=right_on, how=how,
                       suffixes=suffixes)
        hint = None
        if self._t.columns_hint is not None and right._t.columns_hint is not None:
            lcols, rcols = list(self._t.columns_hint), list(right._t.columns_hint)
            overlap = (set(lcols) & set(rcols)) - set(
                [on] if isinstance(on, str) else (on or [])
            )
            hint = [c + suffixes[0] if c in overlap else c for c in lcols] + [
                c + suffixes[1] if c in overlap else c
                for c in rcols
                if not (on is not None and c in ([on] if isinstance(on, str) else on))
            ]
        t = op.new_tileable([self._t, right._t], kind="dataframe", columns_hint=hint)
        return DataFrame(t, self._session)

    def groupby(self, by) -> "GroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return GroupBy(self, keys)

    # -- ordering / dedup -----------------------------------------------
    def sort_values(self, by, ascending: bool = True) -> "DataFrame":
        op = ops.SortValues(by, ascending)
        t = op.new_tileable([self._t], kind="dataframe",
                            columns_hint=self._t.columns_hint)
        return DataFrame(t, self._session)

    def nlargest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=False).head(n)

    def head(self, n: int = 5) -> "DataFrame":
        op = ops.Head(n)
        t = op.new_tileable([self._t], kind="dataframe",
                            columns_hint=self._t.columns_hint)
        return DataFrame(t, self._session)

    @property
    def iloc(self) -> _ILoc:
        return _ILoc(self)

    def drop_duplicates(self, subset=None) -> "DataFrame":
        op = ops.DropDuplicates(subset=subset)
        t = op.new_tileable([self._t], kind="dataframe",
                            columns_hint=self._t.columns_hint)
        return DataFrame(t, self._session)

    # -- elementwise ----------------------------------------------------
    def rename(self, columns: dict) -> "DataFrame":
        op = ops.Rename(columns)
        hint = None
        if self._t.columns_hint is not None:
            hint = [columns.get(c, c) for c in self._t.columns_hint]
        t = op.new_tileable([self._t], kind="dataframe", columns_hint=hint)
        return DataFrame(t, self._session)

    def reset_index(self, drop: bool = False) -> "DataFrame":
        return self._elementwise(
            lambda df: df.reset_index(drop=drop), kind="dataframe",
            name="reset_index",
        )

    def fillna(self, value) -> "DataFrame":
        return self._elementwise(
            lambda df: df.fillna(value), kind="dataframe", name="fillna",
            columns_hint=self._t.columns_hint,
        )

    def dropna(self, subset=None) -> "DataFrame":
        return self._elementwise(
            lambda df: df.dropna(subset=subset), kind="dataframe", name="dropna",
            columns_hint=self._t.columns_hint, preserves_shape=False,
        )

    def copy(self) -> "DataFrame":
        return DataFrame(self._t, self._session)

    # -- reshapes (global semantics: distributed agg + local reshape) ---
    def pivot_table(self, values=None, index=None, columns=None,
                    aggfunc: str = "mean", fill_value=None) -> "DataFrame":
        """Distributed groupby over (index, columns), then a local
        unstack of the (small) aggregated result."""
        keys = [index, columns]
        agg = self.groupby(keys).agg(**{"__v": (values, aggfunc)})

        def reshape(df: pd.DataFrame) -> pd.DataFrame:
            out = df["__v"].unstack(columns)
            out.columns.name = columns
            if fill_value is not None:
                out = out.fillna(fill_value)
            return out

        op = ops.MapGather(reshape, name="pivot_table")
        return DataFrame(op.new_tileable([agg._t], kind="dataframe"), self._session)

    def pivot(self, index=None, columns=None, values=None) -> "DataFrame":
        """Wide reshape — requires gathering the full frame (the very
        operation Dask/Modin do not support; we do, metered)."""
        op = ops.MapGather(
            lambda df: df.pivot(index=index, columns=columns, values=values),
            name="pivot",
        )
        return DataFrame(op.new_tileable([self._t], kind="dataframe"), self._session)


class GroupBy:
    """``df.groupby(keys)`` — holds keys until an aggregation is called."""

    def __init__(self, df: DataFrame, keys: list[str], col: Optional[str] = None) -> None:
        self._df = df
        self._keys = keys
        self._col = col

    def __getitem__(self, col) -> "GroupBy":
        return GroupBy(self._df, self._keys, col)

    def agg(self, arg=None, **kwargs):
        src = self._df
        single_col_str = False
        if self._col is not None and not isinstance(self._col, list):
            # df.groupby(k)[c].agg(f): slim to keys + value column first
            src = self._df[self._keys + [self._col]]
            if isinstance(arg, str):
                arg = {self._col: arg}
                single_col_str = not kwargs
        elif isinstance(self._col, list):
            src = self._df[self._keys + self._col]
        op = ops.GroupByAgg(self._keys, aggs=arg, agg_kwargs=kwargs)
        hint = [out for out, _c, _f in op.specs] if op.layout == "flat" else None
        t = op.new_tileable([src._t], kind="dataframe", columns_hint=hint)
        out = DataFrame(t, src._session)
        if single_col_str:
            # pandas returns a Series for df.groupby(k)[c].agg('f')
            return out[self._col]
        return out

    aggregate = agg

    def sum(self):
        return self.agg("sum")

    def mean(self):
        return self.agg("mean")

    def min(self):
        return self.agg("min")

    def max(self):
        return self.agg("max")

    def count(self):
        return self.agg("count")

    def size(self) -> Series:
        out = self._df[self._keys].groupby(self._keys).agg(
            **{"__size": (self._keys[0], "size")}
        )

        def unname(s: pd.Series) -> pd.Series:
            s = s.copy(deep=False)
            s.name = None  # pandas returns an unnamed Series
            return s

        return out["__size"]._elementwise(unname, kind="series", name="unname")

    def transform(self, func: str) -> Series:
        """``df.groupby(k)[c].transform(f)``: distributed agg, then each
        chunk maps its keys through the (gathered, small) agg result —
        order- and index-preserving like pandas."""
        if self._col is None or isinstance(self._col, list) or len(self._keys) != 1:
            raise NotImplementedError(
                "transform supports a single key and a selected column"
            )
        key, col = self._keys[0], self._col
        agg = self._df.groupby(key).agg(**{"__v": (col, func)})
        gathered = DataFrame(
            ops.MapGather(lambda d: d, name="transform.gather").new_tileable(
                [agg._t], kind="dataframe"
            ),
            self._df._session,
        )

        def apply(chunk, m):
            out = chunk[key].map(m["__v"])
            out.name = col
            return out

        op = Elementwise(apply, name="transform")
        t = op.new_tileable([self._df._t, gathered._t], kind="series")
        return Series(t, self._df._session)


# --------------------------------------------------------------------------
# module-level constructors (the ``xorbits.pandas`` namespace)
# --------------------------------------------------------------------------


def from_pandas(pdf: Union[pd.DataFrame, pd.Series],
                session: Optional[XSession] = None) -> Union[DataFrame, Series]:
    op = ops.FromPandas(pdf)
    if isinstance(pdf, pd.Series):
        t = op.new_tileable([], kind="series")
        return Series(t, session)
    t = op.new_tileable([], kind="dataframe", columns_hint=list(pdf.columns))
    return DataFrame(t, session)


def concat(objs: Sequence[DataFrame], session: Optional[XSession] = None) -> DataFrame:
    op = ops.Concat()
    t = op.new_tileable([o._t for o in objs], kind="dataframe",
                        columns_hint=objs[0]._t.columns_hint)
    return DataFrame(t, session or objs[0]._session)


def merge(left: DataFrame, right: DataFrame, **kwargs) -> DataFrame:
    return left.merge(right, **kwargs)


to_datetime = pd.to_datetime
