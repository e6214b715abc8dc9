"""Chunks: the data placeholders of the chunk graph (paper Section III-C).

A :class:`ChunkNode` is the square in the paper's figures — the output of
one operator and the input of the next. Its payload (a pandas DataFrame /
Series, a NumPy array, a Python scalar, or a shuffle mapper's
:class:`Buckets` of blocks) lives in the storage service
keyed by ``chunk.key``; the node itself carries only metadata plus the
``(r, c)`` distributed index (paper Fig. 4) used to locate any item of
the logical data and to implement ordering-based operators like ``iloc``.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pandas as pd

_key_counter = itertools.count()


def new_key(prefix: str = "c") -> str:
    """Globally unique chunk/subtask key (process-local monotonic)."""
    return f"{prefix}{next(_key_counter)}"


_OBJ_SAMPLE = 256  # values sampled to estimate object-dtype byte width


def _objects_nbytes(columns: list, rows: int) -> int:
    """Sampled deep size of object ``columns`` of ``rows`` values each:
    the mean size of the first values, walking the columns in order,
    times their count (walking every python object with ``deep=True``
    would dominate the meter's runtime). The walk goes by column, not by
    pandas' internal blocks, so a frame meters the same whatever block
    layout pandas holds it in, and a shuffle block meters as its frame."""
    if not columns or not rows:
        return 0
    sample = list(itertools.islice(itertools.chain.from_iterable(columns),
                                   _OBJ_SAMPLE))
    per = sum(sys.getsizeof(x) for x in sample) / len(sample)
    return int(per * (len(columns) * rows))


def _arrays_nbytes(arrays: list, rows: int) -> int:
    """Column bytes: exact ``nbytes`` of every array, plus the sampled
    deep size of the object ones."""
    return (sum(int(a.nbytes) for a in arrays)
            + _objects_nbytes([a for a in arrays if a.dtype == object], rows))


def payload_nbytes(payload: Any) -> int:
    """In-memory size of a chunk payload, used by the memory meter.

    Numeric columns are exact; object columns are estimated from a
    sampled per-value width. The engines meter real payloads either way
    (DESIGN.md § 6).
    """
    if payload is None:
        return 0
    if isinstance(payload, pd.DataFrame):
        return (int(payload.index.memory_usage(deep=False))
                + _arrays_nbytes(list(payload._iter_column_arrays()), len(payload)))
    if isinstance(payload, Block):
        # ``memory_usage`` would add the size of the index's lookup table,
        # which a bucket's fresh index has not built, at the cost of
        # creating one
        return int(payload.index.nbytes) + _arrays_nbytes(payload.arrays, len(payload))
    if isinstance(payload, pd.Series):
        total = int(payload.index.memory_usage(deep=False))
        total += int(payload.memory_usage(index=False, deep=False))
        if payload.dtype == object:
            total += _objects_nbytes([payload.to_numpy(copy=False)], len(payload))
        return total
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, dict):  # shuffle block map: reducer -> block
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(v) for v in payload)
    if isinstance(payload, (int, float, complex, str, bool, np.generic)):
        return 64
    return 256  # conservative default for small aux objects


class Block:
    """One shuffle bucket: a row slice of a mapper's frame, held as its
    column names, its rows' index labels and one array per column. Each
    array is the one pandas stores (an ndarray or an ExtensionArray), so
    every dtype round-trips. A reducer concatenates or joins blocks array
    by array, without building a frame per block. Pickles, so a Spark
    task receives blocks as they are stored."""

    __slots__ = ("columns", "index", "arrays")

    def __init__(self, columns: pd.Index, index: pd.Index, arrays: list) -> None:
        self.columns = columns
        self.index = index
        self.arrays = arrays

    @classmethod
    def of(cls, df: pd.DataFrame) -> "Block":
        """The block of all of ``df``'s rows; shares its arrays."""
        return cls(df.columns, df.index, list(df._iter_column_arrays()))

    def __len__(self) -> int:
        return len(self.index)

    def take(self, rows: np.ndarray) -> "Block":
        """The block of ``rows`` (positions), in that order."""
        return Block(self.columns, self.index.take(rows),
                     [a.take(rows) for a in self.arrays])

    def slice(self, lo: int, hi: int) -> "Block":
        return Block(self.columns, self.index[lo:hi],
                     [a[lo:hi] for a in self.arrays])

    def frame(self) -> pd.DataFrame:
        """The block as a DataFrame; shares its arrays."""
        return frame_of(self.columns, self.index, self.arrays)


def frame_of(columns: pd.Index, index: pd.Index, arrays: list) -> pd.DataFrame:
    """A DataFrame over ``arrays`` (one per column, not copied)."""
    df = pd.DataFrame(dict(enumerate(arrays)), index=index, copy=False)
    df.columns = columns
    return df


class Buckets(dict):
    """A shuffle mapper's output: reducer id → :class:`Block`, holding
    only the non-empty blocks. ``empty`` is a zero-row block with the
    mapper input's columns and dtypes; it stands in for every absent
    bucket, so a reducer still sees both sides' column structure. The
    executor records a stored mapper as a ``Buckets`` of storage keys."""

    def __init__(self, blocks: dict, empty: Block) -> None:
        super().__init__(blocks)
        self.empty = empty


def payload_shape(payload: Any) -> Optional[tuple]:
    if isinstance(payload, (pd.DataFrame, pd.Series, np.ndarray)):
        return tuple(payload.shape)
    return None


@dataclass
class ChunkMeta:
    """Chunk metadata (Section IV-B: "shape, columns, dtype, etc.").

    ``observed`` marks what execution recorded: the executor writes it
    onto the chunk's node when it stores the payload, so it lives as
    long as the graph that holds the chunk. Metadata without it is a
    tile-time hint (a source chunk's shape, a shape copied from an
    input); decisions that need execution's word ask for ``observed``."""

    shape: Optional[tuple] = None
    nbytes: Optional[int] = None
    columns: Optional[list] = None
    dtypes: Optional[dict] = None
    observed: bool = False

    @classmethod
    def from_payload(cls, payload: Any, nbytes: int,
                     observed: bool = False) -> "ChunkMeta":
        """Metadata of ``payload``, whose size ``nbytes`` the caller has
        already metered."""
        meta = cls(shape=payload_shape(payload), nbytes=nbytes, observed=observed)
        if isinstance(payload, pd.DataFrame):
            meta.columns = list(payload.columns)
            meta.dtypes = {c: str(t) for c, t in payload.dtypes.items()}
        return meta


@dataclass(eq=False)
class ChunkNode:
    """One node of the chunk graph.

    ``op`` is the chunk-level operator instance (e.g. a groupby's map
    node or a shuffle reducer); ``inputs`` are the upstream
    chunks whose payloads ``op.execute`` reads; ``index`` is the (r, c)
    distributed index of this chunk within its logical tileable.
    """

    op: Any
    inputs: list = field(default_factory=list)
    index: tuple = (0, 0)
    key: str = field(default_factory=new_key)
    meta: ChunkMeta = field(default_factory=ChunkMeta)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Chunk {self.key} {type(self.op).__name__} idx={self.index}>"


def estimate_nbytes(chunks: list[ChunkNode]) -> Optional[int]:
    """Estimated total bytes of ``chunks``: exact for the observed ones,
    their mean for the rest; ``None`` when none has been observed.
    Hints never count, so a size is extrapolated from execution only."""
    sizes = [c.meta.nbytes for c in chunks if c.meta.observed]
    if not sizes:
        return None
    mean = sum(sizes) / len(sizes)
    return int(sum(sizes) + mean * (len(chunks) - len(sizes)))

