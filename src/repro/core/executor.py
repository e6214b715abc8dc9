"""Executors: run a chunk graph as fused, scheduled subtasks.

Two implementations with identical semantics:

* :class:`LocalExecutor` — serial, in-process; used by unit tests and
  by the baseline engine simulators (fast, no serialisation).
* :class:`SparkExecutor` — each *wave* of ready subtasks becomes one
  Spark job: ``sc.parallelize(payload_items).map(run_subtask)``. This is
  the layer where the paper's subtask ≈ a Spark task (DESIGN.md § 2);
  everything above (tiling, fusion, scheduling) is identical.

Both meter **real bytes** of **real pandas/NumPy payloads** against
per-band budgets; exceeding a budget raises
:class:`repro.storage.SimulatedOOM` (DESIGN.md § 6). One reference count
per chunk key decides its lifetime: pending consumer subtasks, the
tiler's probe holds and live result handles each hold a reference. A
payload is stored only while referenced and is freed when its count
drops to 0, so the resident set tracks what a real cluster would hold.
Storing a payload writes its observed :class:`ChunkMeta` onto the
chunk's node, where the resumed ``tile`` generators read it.
"""
from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple

from repro.storage.service import StorageService

from .chunk import Buckets, ChunkNode, ChunkMeta, payload_nbytes
from .config import EngineConfig
from .graph import DAG, build_dag
from .operators.base import ShuffleReduce
from .scheduler import Scheduler, make_bands
from .subtask import Subtask, build_subtask_graph


class SimulatedHang(RuntimeError):
    """Task-graph size exceeded the scheduler's capacity (the Dask-like
    'hang' failure mode of paper Table II)."""


def run_subtask(
    spec: "SubtaskSpec",
    inputs: dict[str, Any],
    input_sizes: dict[str, int],
) -> tuple[dict[str, Any], dict[str, Any], int]:
    """Execute one subtask purely: input payloads in, output payloads out.

    Shippable to a Spark task: ``spec`` holds only the member chunks'
    ops and input keys, and every input arrives in ``inputs`` keyed by
    chunk key. Intra-subtask intermediates live in the local ``values``
    dict and are freed as soon as their last intra-subtask consumer ran
    — both for real memory and for the meter.

    Returns ``(outputs, out_sizes, peak_working)``:

    * ``out_sizes`` — bytes of each stored output, measured once, here;
      a shuffle mapper's bucket dict gets ``{reducer: bytes}``;
    * ``peak_working`` — the high-water mark of live bytes inside the
      subtask: live inputs + live intermediates. A shuffle input is the
      one bucket gathered, sized as stored, not the mapper's full
      output, which would mismodel real memory.
    """
    # intra-subtask consumer counts drive freeing
    consumers: dict[str, int] = {}
    for chunk in spec.chunks:
        for k in chunk.input_keys:
            consumers[k] = consumers.get(k, 0) + 1

    values = dict(inputs)
    sizes: dict[str, Any] = {}
    store_keys = set(spec.store_keys)
    live = {k: input_sizes[k] for k in spec.input_keys}
    live_total = sum(live.values())
    peak = live_total

    for chunk in spec.chunks:
        out = chunk.op.execute_chunk([values[k] for k in chunk.input_keys], chunk)
        values[chunk.key] = out
        if isinstance(out, Buckets):
            sizes[chunk.key] = {r: payload_nbytes(b) for r, b in out.items()}
            nbytes = sum(sizes[chunk.key].values())
        else:
            nbytes = sizes[chunk.key] = payload_nbytes(out)
        live[chunk.key] = nbytes
        live_total += nbytes
        peak = max(peak, live_total)
        # free inputs whose last consumer just ran
        for k in chunk.input_keys:
            consumers[k] -= 1
            if consumers[k] == 0 and k not in store_keys:
                live_total -= live.pop(k, 0)
                # keep external payloads intact for the driver; only
                # intra-subtask intermediates are truly dropped
                if k in sizes:
                    del values[k]

    outputs = {k: values[k] for k in spec.store_keys}
    out_sizes = {k: sizes[k] for k in spec.store_keys}
    return outputs, out_sizes, peak


class TaskChunk(NamedTuple):
    """One member chunk as a worker sees it: its key, its op and its
    inputs' keys. Unlike a :class:`ChunkNode` it holds no upstream nodes
    or metadata, so pickling it never reaches back into the chunk graph."""

    key: str
    op: Any
    input_keys: tuple


class SubtaskSpec:
    """What a worker needs to run one subtask, and nothing more: the
    member chunks as :class:`TaskChunk`s (ops plus input keys), the keys
    of its external inputs and of the outputs to store, and the bucket
    ``reducer`` it reads from each shuffle input. Source chunks fused
    into the subtask still carry their data in their op."""

    def __init__(self, subtask: Subtask, store_keys: list[str]) -> None:
        self.key = subtask.key
        self.chunks = [
            TaskChunk(c.key, c.op, tuple(i.key for i in c.inputs))
            for c in subtask.chunks
        ]
        self.input_keys = subtask.input_keys
        self.store_keys = store_keys
        self.band = subtask.band
        # the bucket it reads from each shuffle input; reducers never fuse
        # in, so a subtask holds at most one
        self.reducer = next((c.op.reducer for c in self.chunks
                             if isinstance(c.op, ShuffleReduce)), None)


class BaseExecutor:
    """Shared orchestration: fuse → schedule → run waves → store/free.

    ``refs`` is the one table of chunk lifetimes: ``key → count`` of
    live references. A reference is a pending consumer subtask, the
    caller's hold on an ``execute`` target, or a probe hold of the tiler
    (handed to the next ``execute`` as ``release``). A subtask stores an
    output only while its count is above 0; when a count drops to 0 the
    key leaves the table and its payload is deleted, unless the engine
    retains intermediates (``free_intermediates=False``).

    ``buckets`` is the one record of a stored shuffle mapper: a
    :class:`Buckets` mapping each reducer id the mapper had rows for to
    that bucket's storage entry (``key::b<r>``), with the mapper's
    zero-row ``empty`` standing in for every other bucket. Nothing is
    stored under the mapper's own key, so a reducer reads, and the spill
    layer moves, only its own buckets: the paper's storage-service
    shuffle. Storing the whole dict instead makes every reducer page in
    every mapper's full output: O(maps × reducers) spill churn at scale
    (measured: 766 s vs ~1 s on one TPC-H-lite query)."""

    def __init__(self, cfg: EngineConfig, storage: StorageService) -> None:
        self.cfg = cfg
        self.storage = storage
        self.bands = make_bands(cfg.n_workers, cfg.bands_per_worker)
        self.scheduler = Scheduler(self.bands)
        self.tasks_executed = 0
        self.waves = 0
        self.refs: dict[str, int] = {}
        self.buckets: dict[str, Buckets] = {}

    # -- public --------------------------------------------------------
    def execute(self, target_chunks: list[ChunkNode],
                release: Iterable[str] = ()) -> None:
        """Execute every not-yet-stored chunk needed by ``target_chunks``
        and record their observed metadata on their nodes. The caller gets
        one reference on each target and drops it with :meth:`decref`.
        The references in ``release`` are dropped once this call has
        counted its own consumers. On a raise, every reference this call
        took or was handed is dropped."""
        own = [c.key for c in target_chunks]
        release = list(release)
        self.incref(own)
        held: dict[Subtask, list[str]] = {}
        try:
            pending = self._pending(target_chunks)
            sub_dag, subtasks = build_subtask_graph(pending, self.cfg)
            # each subtask holds its external inputs until it has run
            held = {s: s.input_keys for s in subtasks}
            for keys in held.values():
                self.incref(keys)
            self.decref(release)
            release = []
            self._run_waves(sub_dag, held, {c.key: c for c in pending.nodes()})
        except BaseException:
            self.decref(release + own)
            raise
        finally:
            for keys in held.values():
                self.decref(keys)

    def incref(self, keys: Iterable[str]) -> None:
        for k in keys:
            self.refs[k] = self.refs.get(k, 0) + 1

    def decref(self, keys: Iterable[str]) -> None:
        for k in keys:
            self.refs[k] -= 1
            if self.refs[k] == 0:
                del self.refs[k]
                if self.cfg.free_intermediates:
                    self._delete_chunk(k)

    def fetch(self, chunks: Iterable[ChunkNode]) -> list[Any]:
        return [self.storage.get(c.key) for c in chunks]

    def _pending(self, target_chunks: list[ChunkNode]) -> DAG[ChunkNode]:
        """The chunk graph still to run: walk back from the targets,
        stopping at stored chunks, so an already-materialised result
        never recomputes its ancestors."""
        dag = build_dag(target_chunks)
        needed: set[str] = set()
        stack = [c for c in target_chunks if not self._stored(c.key)]
        while stack:
            c = stack.pop()
            if c.key in needed:
                continue
            needed.add(c.key)
            stack.extend(
                i for i in c.inputs
                if not self._stored(i.key) and i.key not in needed
            )
        pending = [c for c in dag.topological_order() if c.key in needed]
        if self.cfg.max_tasks is not None and len(pending) > self.cfg.max_tasks:
            raise SimulatedHang(
                f"task graph of {len(pending)} nodes exceeds scheduler "
                f"capacity {self.cfg.max_tasks}"
            )
        return dag.subgraph(pending)

    def _stored(self, key: str) -> bool:
        return key in self.buckets or self.storage.has(key)

    def _run_waves(self, sub_dag: DAG[Subtask], held: dict[Subtask, list[str]],
                   nodes: dict[str, ChunkNode]) -> None:
        """Run every subtask in ``held``, a wave of ready ones at a time;
        each drops its hold on its inputs once its wave has run. ``nodes``
        are the pending graph's chunk nodes by key."""
        assignment = self.scheduler.assign(
            sub_dag,
            # a stored input sits on the band its producer stored it to
            {k: self.storage.band_of(k)
             for s in held for k in s.input_keys if self.storage.has(k)},
            lambda k: self.storage.nbytes_of(k) if self.storage.has(k) else 0,
        )
        for s, band in assignment.items():
            s.band = band.name

        while held:
            wave = [
                s for s in held
                if not any(p in held for p in sub_dag.predecessors(s))
            ]
            assert wave, "subtask graph stalled (cycle after fusion?)"
            # an output is stored only while something references it
            self._run_wave([
                SubtaskSpec(s, [c.key for c in s.chunks if c.key in self.refs])
                for s in wave
            ], nodes)
            self.waves += 1
            for s in wave:
                self.decref(held.pop(s))

    def _delete_chunk(self, k: str) -> None:
        for bk in self.buckets.pop(k, {}).values():
            self.storage.delete(bk)
        self.storage.delete(k)

    # -- wave execution -------------------------------------------------
    def _run_wave(self, specs: list[SubtaskSpec],
                  nodes: dict[str, ChunkNode]) -> None:
        """Run one wave: each subtask's result is metered, then stored."""
        for spec, (outputs, sizes, peak) in zip(specs, self._run_specs(specs)):
            self._meter(spec, peak)
            self._store_outputs(spec, outputs, sizes, nodes)
            self.tasks_executed += 1

    def _run_specs(self, specs: list[SubtaskSpec]) -> Iterator[tuple]:
        """``run_subtask`` results in ``specs`` order. In-process and
        lazy: each subtask is gathered only after the previous one was
        stored, so a wave never holds all its outputs at once."""
        for spec in specs:
            yield run_subtask(spec, *self._gather(spec))

    def _gather(self, spec: SubtaskSpec) -> tuple[dict[str, Any], dict[str, int]]:
        """Input payloads and their stored sizes. A shuffle input is one
        block: the mapper's bucket ``spec.reducer``, or its zero-row
        ``empty`` (0 bytes) when it stored no such bucket."""
        inputs: dict[str, Any] = {}
        sizes: dict[str, int] = {}
        for k in spec.input_keys:
            mapped = self.buckets.get(k)
            key = k if mapped is None else mapped.get(spec.reducer)
            if key is None:
                inputs[k], sizes[k] = mapped.empty, 0
            else:
                inputs[k] = self.storage.get(key)
                sizes[k] = self.storage.nbytes_of(key)
        return inputs, sizes

    def _store_outputs(
        self, spec: SubtaskSpec, outputs: dict[str, Any], sizes: dict[str, Any],
        nodes: dict[str, ChunkNode],
    ) -> None:
        """Store each output and write its observed metadata onto its node
        in the pending graph (never onto a fused node, which shares only
        its tail's key)."""
        for k, payload in outputs.items():
            if isinstance(payload, Buckets):
                # shuffle mapper output: one entry per non-empty bucket
                mapped = self.buckets[k] = Buckets(
                    {r: f"{k}::b{r}" for r in payload}, payload.empty)
                for r, blk in payload.items():
                    self.storage.put(mapped[r], blk, band=spec.band,
                                     nbytes=sizes[k][r])
                meta = ChunkMeta(nbytes=sum(sizes[k].values()), observed=True)
            else:
                self.storage.put(k, payload, band=spec.band, nbytes=sizes[k])
                meta = ChunkMeta.from_payload(payload, nbytes=sizes[k], observed=True)
            nodes[k].meta = meta

    def _meter(self, spec: SubtaskSpec, peak_working: int) -> None:
        """Charge the subtask's peak transient working set (inputs +
        live intermediates) against its band."""
        self.storage.charge_transient(spec.band, peak_working)
        self.storage.release_transient(spec.band, peak_working)


class LocalExecutor(BaseExecutor):
    """In-process, serial executor.

    pandas kernels rarely release the GIL, and under sandboxed kernels
    (gVisor) contended futexes are so slow that a thread pool can be
    100× *slower* than serial execution — measured, not hypothetical.
    Bands still drive scheduling and memory metering; wall-clock
    parallelism comes from :class:`SparkExecutor` (real processes).
    """


class SparkExecutor(BaseExecutor):
    """Wave-per-Spark-job executor over ``sc.parallelize`` (RDD layer —
    justification in DESIGN.md § 2)."""

    def __init__(self, spark, cfg, storage) -> None:
        super().__init__(cfg, storage)
        self.spark = spark

    def _run_specs(self, specs: list[SubtaskSpec]) -> Iterator[tuple]:
        if len(specs) == 1:
            # avoid job overhead for singleton waves (common: final agg)
            return super()._run_specs(specs)
        # One partition per subtask: each Spark task deserialises only its
        # own spec + input payloads.
        items = [(spec, *self._gather(spec)) for spec in specs]
        sc = self.spark.sparkContext
        return iter(
            sc.parallelize(items, len(items))
            .map(lambda it: run_subtask(*it))
            .collect()
        )
