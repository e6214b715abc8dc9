"""Operator protocol and the tileable (logical) graph (paper Section III-C).

Every Xorbits API is internally an operator implementing three methods:

* ``__call__`` — build the node of the **tileable graph** (logical plan).
  Here that is :meth:`Operator.new_tileable`, invoked by the frontend.
* ``tile`` — expand the node into **chunk graph** nodes. ``tile`` is a
  *generator*: when it needs execution metadata that is missing, it
  ``yield``s the chunks to run (paper Fig. 5b); the dynamic tiler
  executes them, which records observed metadata on those chunk nodes
  (``chunk.meta.observed``), and resumes the generator at the yield
  point. Static operators simply never yield.
* ``execute_chunk`` — run one chunk's kernel on the single-node backend
  (pandas / NumPy), given the input payloads.

The default ``tile`` is the row-aligned 1:1 expansion that every
projection, filter and elementwise op of both frontends shares: output
chunk *i* reads chunk *i* of each input. :func:`shuffle` is the one
builder of a two-stage shuffle (paper Sections III-C, V-C): a
:class:`ShuffleMap` per input chunk splits it into per-reducer buckets,
and each :class:`ShuffleReduce` gathers its bucket from every mapper.
Groupby, merge and sort vary only the split and reduce kernels.
:class:`Elementwise` (one kernel per chunk, for DataFrames and Tensors
alike) and :class:`DataChunk` (the source holder of an in-memory slice)
live here for the same reason.
"""
from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable, Generator, Optional, Sequence

from ..chunk import ChunkMeta, ChunkNode
from ..config import EngineConfig, TileStats

_tileable_counter = itertools.count()


class Tileable:
    """A node of the tileable graph: the logical result of one operator.

    ``columns_hint`` is a planning-time hint only; authoritative
    metadata is what execution records on the chunk nodes (the whole
    point of dynamic tiling is that hints can be wrong or absent).
    """

    def __init__(
        self,
        op: "Operator",
        inputs: Sequence["Tileable"],
        out_slot: int = 0,
        columns_hint: Optional[list] = None,
        kind: str = "dataframe",  # "dataframe" | "series" | "tensor" | "scalar"
    ) -> None:
        self.op = op
        self.inputs = list(inputs)
        self.out_slot = out_slot
        self.key = f"t{next(_tileable_counter)}"
        self.columns_hint = columns_hint
        self.kind = kind
        self.chunks: Optional[list[ChunkNode]] = None  # set by the tiler

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tileable {self.key} {type(self.op).__name__}[{self.out_slot}]>"


class Operator:
    """Base class for all operators.

    Subclasses set ``output_count`` and implement :meth:`execute_chunk`;
    any op that is not 1:1 row-aligned also overrides :meth:`tile`.
    The chunk-level ops a ``tile`` builds (a groupby's map and combine
    nodes, a shuffle's mappers and reducers) are separate lightweight
    instances; only :meth:`execute_chunk` is called on them.
    """

    output_count = 1
    #: set on chunk-level ops across whose *incoming* edges graph-level
    #: fusion must not fuse (shuffle reducers and combine nodes gather
    #: from many chunks).
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

    #: weak references to this op's output tileables. A tileable owns
    #: its op, not the reverse: a strong back-edge would form a cycle
    #: that keeps every finished query's graph alive until a full GC,
    #: and would drag the tileable graph into every pickled chunk op.
    _output_refs: tuple = ()

    # -- tileable level -------------------------------------------------
    def new_tileable(self, inputs: Sequence[Tileable], **tileable_kw) -> Tileable:
        assert self.output_count == 1
        return self.new_tileables(inputs, [tileable_kw])[0]

    def new_tileables(
        self, inputs: Sequence[Tileable], kws: Sequence[dict]
    ) -> list[Tileable]:
        assert len(kws) == self.output_count
        outs = [Tileable(self, inputs, slot, **kw) for slot, kw in enumerate(kws)]
        self._output_refs = tuple(weakref.ref(t) for t in outs)
        return outs

    @property
    def outputs(self) -> list[Tileable]:
        """The output tileables still referenced from somewhere."""
        return [t for t in (r() for r in self._output_refs) if t is not None]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_output_refs", None)
        return state

    # -- chunk level ----------------------------------------------------
    def tile(
        self, ctx: "TileContext"
    ) -> "Generator[list[ChunkNode], None, list[list[ChunkNode]]] | list[list[ChunkNode]]":
        """Expand into chunks.

        Returns one chunk list per output slot (so a single-output op
        returns ``[chunks]``). May be implemented as a generator that
        yields chunk lists to request their execution (dynamic tiling).

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
        return [chunks]

    def execute_chunk(self, inputs: list[Any], chunk: ChunkNode) -> Any:
        """Compute the payload of ``chunk`` from its input payloads."""
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


class Elementwise(Operator):
    """A 1:1 operator applying ``func(*input_payloads)`` per chunk, for
    DataFrames, Series and Tensors alike.

    Covers arithmetic, comparisons, boolean logic, ``fillna``,
    ``astype``, accessor methods (``.dt.year``), ``reset_index`` — every
    row-wise op. These are the prime candidates for operator-level
    fusion (Section V-A). A kernel that drops or adds rows (``dropna``)
    passes ``preserves_shape=False``."""

    elementwise = True

    def __init__(self, func: Callable, name: str = "elementwise",
                 preserves_shape: bool = True) -> None:
        self.func = func
        self.name = name
        self.preserves_shape = preserves_shape

    def execute_chunk(self, inputs, chunk):
        return self.func(*inputs)


class DataChunk(Operator):
    """Chunk-level holder of an in-memory source slice (a pandas piece
    or an ndarray block)."""

    def __init__(self, data: Any) -> None:
        self.data = data

    def execute_chunk(self, inputs, chunk):
        return self.data


class ShuffleMap(Operator):
    """Map stage of a shuffle: ``split(payload)`` returns the chunk's
    :class:`~repro.core.chunk.Buckets`, reducer id → block. The only op
    that sets ``no_fuse_out``: a mapper scatters to every reducer."""

    no_fuse_out = True

    def __init__(self, split: Callable) -> None:
        self.split = split

    def execute_chunk(self, inputs, chunk):
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

    def execute_chunk(self, inputs, chunk):
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
    """Everything an operator's ``tile`` needs: config, the current op's
    already-tiled input tileables, probe payloads from the storage
    service, and tiling statistics. ``key`` is the tileable being tiled:
    it names the op's decision records."""

    def __init__(
        self,
        cfg: EngineConfig,
        stats: Optional[TileStats] = None,
        storage: Any = None,
    ) -> None:
        self.cfg = cfg
        self.stats = stats or TileStats()
        self.storage = storage
        self.inputs: list[Tileable] = []  # set by run_tile per op
        self.key = ""  # set by run_tile per op

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


def run_tile(t: Tileable, ctx: TileContext, execute_cb) -> list[list[ChunkNode]]:
    """Drive the ``tile`` of ``t``'s operator, servicing its yields.

    ``execute_cb(chunks)`` must execute the chunks (and any unexecuted
    ancestors) and record their metadata on the chunk nodes. This is
    the switch between graph construction and graph execution that the
    paper's Fig. 5a depicts.
    """
    op = t.op
    ctx.inputs = t.inputs
    ctx.key = t.key
    result = op.tile(ctx)
    if isinstance(result, Generator):
        gen = result
        try:
            request = next(gen)
            while True:
                ctx.stats.yields += 1
                ctx.stats.probe_executions += len(request)
                execute_cb(request)
                request = gen.send(None)
        except StopIteration as stop:
            result = stop.value
    assert result is not None, f"{type(op).__name__}.tile returned no chunks"
    return result
