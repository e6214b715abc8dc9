"""Chunks: the data placeholders of the chunk graph (paper Section III-C).

A :class:`ChunkNode` is the square in the paper's figures — the output of
one operator and the input of the next. Its payload (a pandas DataFrame /
Series, a NumPy array, or a Python scalar) lives in the storage service
keyed by ``chunk.key``; the node itself carries only metadata plus the
``(r, c)`` distributed index (paper Fig. 4) used to locate any item of
the logical data and to implement ordering-based operators like ``iloc``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pandas as pd

_key_counter = itertools.count()


def new_key(prefix: str = "c") -> str:
    """Globally unique chunk/subtask key (process-local monotonic)."""
    return f"{prefix}{next(_key_counter)}"


_OBJ_SAMPLE = 256  # values sampled to estimate object-dtype byte width


def _object_array_nbytes(vals: np.ndarray) -> int:
    """Sampled deep size of an object ndarray (walking every python
    object with ``deep=True`` would dominate the meter's runtime)."""
    import sys

    flat = vals.ravel()
    n = len(flat)
    if n == 0:
        return 0
    sample = flat[:_OBJ_SAMPLE]
    per = sum(sys.getsizeof(x) for x in sample) / len(sample)
    return int(per * n)


def _df_nbytes(df: pd.DataFrame) -> int:
    """Block-level size of a DataFrame — avoids boxing every column into
    a Series, which profiling shows costs more than the kernels."""
    total = int(df.index.memory_usage(deep=False))
    try:
        blocks = df._mgr.blocks  # noqa: SLF001 - hot path, fallback below
    except AttributeError:
        return total + int(df.memory_usage(index=False, deep=False).sum())
    for blk in blocks:
        vals = blk.values
        nbytes = getattr(vals, "nbytes", None)
        if nbytes is None:
            nbytes = getattr(getattr(vals, "_ndarray", None), "nbytes", 64)
        total += int(nbytes)
        if getattr(vals, "dtype", None) == object:
            total += _object_array_nbytes(np.asarray(vals))
    return total


def payload_nbytes(payload: Any) -> int:
    """In-memory size of a chunk payload, used by the memory meter.

    Numeric columns are exact (block-level ``nbytes``); object columns
    are estimated from a sampled per-value width. The engines meter real
    payloads either way (DESIGN.md § 6).
    """
    if payload is None:
        return 0
    if isinstance(payload, pd.DataFrame):
        return _df_nbytes(payload)
    if isinstance(payload, pd.Series):
        total = int(payload.index.memory_usage(deep=False))
        vals = payload.to_numpy(copy=False) if payload.dtype == object else None
        total += int(payload.memory_usage(index=False, deep=False))
        if vals is not None:
            total += _object_array_nbytes(vals)
        return total
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, dict):  # shuffle block map: reducer -> frame
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(v) for v in payload)
    if isinstance(payload, (int, float, complex, str, bool, np.generic)):
        return 64
    return 256  # conservative default for small aux objects


class Buckets(dict):
    """A shuffle mapper's output: reducer id → block, holding only the
    non-empty blocks. ``empty`` is a zero-row frame with the mapper
    input's columns and dtypes; it stands in for every absent bucket,
    so a reducer still sees both sides' column structure. The executor
    records a stored mapper as a ``Buckets`` of storage keys."""

    def __init__(self, blocks: dict, empty: Any) -> None:
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

    def __hash__(self) -> int:
        return hash(self.key)

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

