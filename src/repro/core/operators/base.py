"""Operator protocol and the tileable (logical) graph (paper Section III-C).

Every Xorbits API is internally an operator implementing three methods:

* ``__call__`` — build the node of the **tileable graph** (logical plan).
  Here that is :meth:`Operator.new_tileable`, invoked by the frontend:
  an operator has exactly one output tileable.
* ``tile`` — expand the node into **chunk graph** nodes and return its
  one chunk list. ``tile`` is a *generator*: when it needs execution
  metadata that is missing, it ``yield``s the chunks to run (paper
  Fig. 5b); the dynamic tiler executes them, which records observed
  metadata on those chunk nodes (``chunk.meta.observed``), and resumes
  the generator at the yield point. Static operators simply never
  yield. A dynamic operator records the partitioning it picked on its
  tileable (``Tileable.decision``).
* ``execute_chunk`` — run one chunk's kernel on the single-node backend
  (pandas / NumPy), given the input payloads.

The default ``tile`` is the row-aligned 1:1 expansion that every
projection, filter and elementwise op of both frontends shares: output
chunk *i* reads chunk *i* of each input.

A chunk kernel is a function of its input payloads, and two chunk ops
run one: :class:`Kernel` (fusable: a map step, a local sort, a
broadcast merge) and :class:`Combine` (the combine and reduce steps,
which gather many chunks, so graph-level fusion stops at their
inputs). A kernel bound to parameters is a
``functools.partial`` of a module-level function, so a shipped subtask
pickles to function references plus a few keys. :class:`Elementwise`
is the :class:`Kernel` that operator-level fusion chains (Section V-A),
for DataFrames and Tensors alike. :func:`shuffle` is the one builder of
a two-stage shuffle (paper Sections III-C, V-C): a :class:`ShuffleMap`
per input chunk splits it into per-reducer buckets, and each
:class:`ShuffleReduce` gathers its bucket from every mapper. Groupby,
merge and sort vary only the split and reduce kernels.
:class:`DataChunk` holds an in-memory source slice.
"""
from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional, Sequence

from ..chunk import ChunkMeta, ChunkNode
from ..config import EngineConfig

_tileable_counter = itertools.count()


class Tileable:
    """A node of the tileable graph: the logical result of one operator.

    ``columns_hint`` is a planning-time hint only; authoritative
    metadata is what execution records on the chunk nodes (the whole
    point of dynamic tiling is that hints can be wrong or absent).
    ``chunks`` is set only while the tileable is a run's target: the
    tiler gives every other tileable's list back when its call ends (its
    chunk nodes stay reachable from the targets' chunks). A target has
    every column and is stored for as long as it lives, so a later run
    stops its walk there. ``decision`` is the partitioning a dynamic
    operator picked when it was tiled (``"tree"``/``"shuffle"`` for a
    groupby, ``"broadcast"``/``"shuffle"``/``"skew"`` for a merge), so it
    lives exactly as long as the query's graph.
    """

    def __init__(
        self,
        op: "Operator",
        inputs: Sequence["Tileable"],
        columns_hint: Optional[list] = None,
        kind: str = "dataframe",  # "dataframe" | "series" | "tensor" | "scalar"
    ) -> None:
        self.op = op
        self.inputs = list(inputs)
        self.key = f"t{next(_tileable_counter)}"
        self.columns_hint = columns_hint
        self.kind = kind
        self.chunks: Optional[list[ChunkNode]] = None  # a run's target only
        self.decision: Optional[str] = None  # set by a dynamic op's tile

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tileable {self.key} {type(self.op).__name__}>"


class Operator:
    """Base class for all operators.

    An operator has one output tileable and tiles into one chunk list.
    Subclasses implement :meth:`execute_chunk`; any op that is not 1:1
    row-aligned also overrides :meth:`tile`.
    The chunk-level ops a ``tile`` builds (a groupby's map and combine
    nodes, a shuffle's mappers and reducers) are :class:`Kernel`,
    :class:`Combine` and shuffle instances; only :meth:`execute_chunk`
    is called on them.
    """

    #: set only on :class:`Combine` and :class:`ShuffleReduce`: graph-level
    #: fusion never crosses their *incoming* edges (they gather from
    #: many chunks).
    no_fuse_in = False
    #: set only on :class:`ShuffleMap`: fusion never crosses its
    #: outgoing edges (a mapper scatters to many reducers).
    no_fuse_out = False
    #: chunk-level elementwise ops eligible for operator-level fusion
    elementwise = False
    #: the default ``tile`` copies the shape of an input chunk that is
    #: not broadcast onto each output chunk as a hint: set only on ops
    #: whose output has exactly that input's rows
    preserves_shape = False

    # -- tileable level -------------------------------------------------
    def new_tileable(self, inputs: Sequence[Tileable], **tileable_kw) -> Tileable:
        """The op's output tileable (the node of the tileable graph)."""
        return Tileable(self, inputs, **tileable_kw)

    # -- chunk level ----------------------------------------------------
    def tile(
        self, ctx: "TileContext"
    ) -> "Generator[list[ChunkNode], None, list[ChunkNode]] | list[ChunkNode]":
        """Expand into the output's chunks.

        May be implemented as a generator that yields chunk lists to
        request their execution (dynamic tiling) and returns the chunks.

        The default is the row-aligned 1:1 expansion: every input has
        either one chunk, which is broadcast, or ``n``; output chunk
        ``i`` (index ``(i, 0)``) runs this op on chunk ``i`` of each.
        A shape hint comes from the first input with ``n`` chunks, never
        from a broadcast one.
        """
        in_lists = [ctx.input_chunks(i) for i in range(len(ctx.inputs))]
        n = max(len(l) for l in in_lists)
        assert all(len(l) in (1, n) for l in in_lists), (
            f"{getattr(self, 'name', type(self).__name__)}: misaligned "
            f"chunking {[len(l) for l in in_lists]}"
        )
        full = next(l for l in in_lists if len(l) == n)
        chunks = []
        for i in range(n):
            ins = [l[i] if len(l) == n else l[0] for l in in_lists]
            shape = full[i].meta.shape if self.preserves_shape else None
            chunks.append(ChunkNode(op=self, inputs=ins, index=(i, 0),
                                    meta=ChunkMeta(shape=shape)))
        return chunks

    def execute_chunk(self, inputs: list[Any]) -> Any:
        """Compute a chunk's payload from its input payloads."""
        raise NotImplementedError(type(self).__name__)

    # -- optimizer hooks ------------------------------------------------
    def required_input_columns(
        self, required_out: Optional[set]
    ) -> Optional[list[Optional[set]]]:
        """Column-pruning hook: given the columns required of this op's
        output (``None`` = all), return per-input required column sets
        (``None`` entries = all columns of that input). Default:
        unknown → require everything."""
        return None


class Kernel(Operator):
    """A chunk op that runs one kernel: its payload is ``fn(*inputs)``.
    Graph-level fusion may merge it with its neighbours."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def execute_chunk(self, inputs):
        return self.fn(*inputs)


class Combine(Kernel):
    """A :class:`Kernel` that gathers many chunks — a combine tree's
    nodes, a scalar reduction, a global gather — so graph-level fusion
    never crosses its incoming edges."""

    no_fuse_in = True


class Elementwise(Kernel):
    """A 1:1 operator applying ``fn(*input_payloads)`` per chunk, for
    DataFrames, Series and Tensors alike.

    Covers arithmetic, comparisons, boolean logic, ``fillna``,
    ``astype``, accessor methods (``.dt.year``), ``reset_index`` — every
    row-wise op. These are the prime candidates for operator-level
    fusion (Section V-A). A kernel that drops or adds rows (``dropna``)
    passes ``preserves_shape=False``."""

    elementwise = True

    def __init__(self, fn: Callable, name: str = "elementwise",
                 preserves_shape: bool = True) -> None:
        super().__init__(fn)
        self.name = name
        self.preserves_shape = preserves_shape


class DataChunk(Operator):
    """Chunk-level holder of an in-memory source slice (a pandas piece
    or an ndarray block)."""

    def __init__(self, data: Any) -> None:
        self.data = data

    def execute_chunk(self, inputs):
        return self.data


class ShuffleMap(Operator):
    """Map stage of a shuffle: ``split(payload)`` returns the chunk's
    :class:`~repro.core.chunk.Buckets`, reducer id → block. The only op
    that sets ``no_fuse_out``: a mapper scatters to every reducer."""

    no_fuse_out = True

    def __init__(self, split: Callable) -> None:
        self.split = split

    def execute_chunk(self, inputs):
        return self.split(inputs[0])


class ShuffleReduce(Operator):
    """Reduce stage of a shuffle: ``reduce(blocks)`` over bucket
    ``reducer`` of every mapper, one block per mapper in mapper order.
    The only op with a ``reducer`` id; the executor gathers that bucket
    of each shuffle input."""

    no_fuse_in = True

    def __init__(self, reducer: int, reduce: Callable) -> None:
        self.reducer = reducer
        self.reduce = reduce

    def execute_chunk(self, inputs):
        return self.reduce(inputs)


def shuffle(sides: Sequence[tuple[list[ChunkNode], Callable]], n: int,
            reduce: Callable) -> list[ChunkNode]:
    """The one shuffle builder. ``sides`` is a list of ``(chunks,
    split)`` pairs: chunk ``i`` of a side gets a :class:`ShuffleMap` at
    index ``(i, 0)``. Returns the ``n`` :class:`ShuffleReduce` chunks,
    reducer ``r`` at index ``(r, 0)``, each reading every mapper in side
    order."""
    maps = [
        ChunkNode(op=ShuffleMap(split), inputs=[c], index=(i, 0), meta=ChunkMeta())
        for chunks, split in sides
        for i, c in enumerate(chunks)
    ]
    return [
        ChunkNode(op=ShuffleReduce(r, reduce), inputs=list(maps), index=(r, 0),
                  meta=ChunkMeta())
        for r in range(n)
    ]


class TileContext:
    """Everything an operator's ``tile`` needs: config, the tileable
    being tiled (where a dynamic op records its ``decision``), its
    already-tiled input tileables, the columns this run needs of it, and
    probe payloads from the storage service."""

    def __init__(self, cfg: EngineConfig, storage: Any = None,
                 required: Optional[dict[str, Optional[set]]] = None) -> None:
        self.cfg = cfg
        self.storage = storage
        # tileable key → the columns this run needs of it (absent = all)
        self.required = required or {}
        self.tileable: Optional[Tileable] = None  # set by run_tile per op
        self.inputs: list[Tileable] = []  # set by run_tile per op

    def input_chunks(self, slot: int = 0) -> list[ChunkNode]:
        """Chunks of the current op's ``slot``-th input tileable."""
        t = self.inputs[slot]
        assert t.chunks is not None, f"input {t} not yet tiled"
        return t.chunks

    def probe_payload(self, key: str) -> Any:
        """Payload of an executed chunk (dynamic operators inspect actual
        data, e.g. join-key frequencies for skew detection), or ``None``
        when it is not stored."""
        if self.storage is None or not self.storage.has(key):
            return None
        return self.storage.get(key)


def run_tile(t: Tileable, ctx: TileContext, execute_cb) -> list[ChunkNode]:
    """Drive the ``tile`` of ``t``'s operator, servicing its yields, and
    return ``t``'s chunks.

    ``execute_cb(chunks)`` must execute the chunks (and any unexecuted
    ancestors) and record their metadata on the chunk nodes. This is
    the switch between graph construction and graph execution that the
    paper's Fig. 5a depicts.
    """
    op = t.op
    ctx.tileable = t
    ctx.inputs = t.inputs
    result = op.tile(ctx)
    if isinstance(result, Generator):
        gen = result
        try:
            request = next(gen)
            while True:
                execute_cb(request)
                request = gen.send(None)
        except StopIteration as stop:
            result = stop.value
    assert (isinstance(result, list) and result
            and all(isinstance(c, ChunkNode) for c in result)), (
        f"{type(op).__name__}.tile must return a non-empty chunk list, "
        f"got {result!r}")
    return result
