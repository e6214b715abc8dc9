"""Span tracer that times the engine's layers from the outside.

Nothing under ``src/`` is changed: :class:`Tracer` replaces public
functions and methods of the engine's modules with timing wrappers for
the duration of one traced pass (``with tracer.installed(): ...``) and
puts the originals back afterwards, so untraced passes run the
unmodified engine.

Every wrapped call records one span ``[name, start, end, parent, op]``.
Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer metrics and :func:`chrome_events` into Chrome trace-event
``ph: "X"`` records.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter
from typing import Any, Callable, Optional

# span record fields
NAME, START, END, PARENT, OP = range(5)

TILE = "tiling.tile"
EXECUTE = "executor.execute"
FUSION = "fusion.build_subtask_graph"
SCHEDULE = "scheduler.assign"
KERNEL = "executor.run_subtask"
NBYTES = "meter.payload_nbytes"
TRANSIENT = "meter.transient"
PUT = "storage.put"
GET = "storage.get"
RUN = "frontend.run"
SHIP = "spark.parallelize"
COLLECT = "spark.collect"

# modules whose imported ``payload_nbytes`` name is the meter entry point
_NBYTES_MODULES = (
    "repro.core.executor",
    "repro.storage.service",
    "repro.core.operators.dataframe",
)


class _ModuleRef:
    """Pickles as ``importlib.import_module(name)``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __reduce__(self):
        return importlib.import_module, (self.name,)


class _ModuleFunction:
    """A timing wrapper installed as a module-level function.

    Spark pickles the closures that reference ``run_subtask``; a wrapper
    pickles as a lookup of the same name in the worker's own (unwrapped)
    copy of the module, so tracing never ships to the workers.
    """

    def __init__(self, module: str, attr: str, wrapper: Callable) -> None:
        self._module = module
        self._attr = attr
        self._wrapper = wrapper

    def __call__(self, *args, **kwargs):
        return self._wrapper(*args, **kwargs)

    def __reduce__(self):
        return getattr, (_ModuleRef(self._module), self._attr)


class Tracer:
    """Records spans around calls into the engine's public functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- wrapping -------------------------------------------------------
    def _timed(self, name: str, fn: Callable,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack = self._stack
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _patches(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, replacement)`` for every traced entry point."""
        from pyspark import RDD, SparkContext
        from repro.core import executor as ex
        from repro.core.chunk import payload_nbytes
        from repro.core.tiling import GraphTiler
        from repro.frontend.session import XSession
        from repro.storage.service import StorageLevel, StorageService

        patches: list[tuple[Any, str, Any]] = []

        def method(owner, attr, name, before=None, after=None):
            patches.append((owner, attr, self._timed(
                name, getattr(owner, attr), before, after)))

        def function(module_name, attr, name, before=None, after=None):
            module = importlib.import_module(module_name)
            wrapper = self._timed(name, getattr(module, attr), before, after)
            patches.append((module, attr,
                            _ModuleFunction(module_name, attr, wrapper)))

        def count_fusion(out, chunk_dag, cfg):
            self.counts["fusion.chunks"] += len(chunk_dag)
            self.counts["fusion.subtasks"] += len(out[1])

        def count_reload(storage, key):
            if storage.has(key) and storage.level_of(key) is StorageLevel.DISK:
                self.counts["storage.reloads"] += 1

        def count_ship(sc, items, *args, **kwargs):
            # SparkExecutor hands over (spec, input payloads, input sizes)
            for item in items:
                self.counts["spark.ship_bytes"] += payload_nbytes(item[1])

        method(GraphTiler, "tile", TILE)
        method(ex.BaseExecutor, "execute", EXECUTE)
        function("repro.core.executor", "build_subtask_graph", FUSION,
                 after=count_fusion)
        method(ex.Scheduler, "assign", SCHEDULE)
        function("repro.core.executor", "run_subtask", KERNEL)
        for module_name in _NBYTES_MODULES:
            function(module_name, "payload_nbytes", NBYTES)
        method(StorageService, "charge_transient", TRANSIENT)
        method(StorageService, "release_transient", TRANSIENT)
        method(StorageService, "put", PUT)
        method(StorageService, "get", GET, before=count_reload)
        method(XSession, "run", RUN)
        method(SparkContext, "parallelize", SHIP, before=count_ship)
        method(RDD, "collect", COLLECT)
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the engine made inside the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


# -- analysis -------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus what its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _under(spans: list[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list[list], counts: Counter, wall_s: float) -> dict:
    """Per-layer times (s) and counts of one traced pass.

    Times are inclusive durations except ``tiling.plan_s``,
    ``executor.self_s`` and ``frontend.fetch_s``, which are self times.
    """
    selfs = self_times(spans)
    incl: Counter = Counter()
    excl: Counter = Counter()
    calls: Counter = Counter()
    probe_s = final_s = 0.0
    probes = 0
    top = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        incl[s[NAME]] += dur
        excl[s[NAME]] += selfs[i]
        calls[s[NAME]] += 1
        if s[PARENT] < 0:
            top += dur
        if s[NAME] == EXECUTE:
            if _under(spans, i, TILE):
                probe_s += dur
                probes += 1
            else:
                final_s += dur
    subtasks = counts["fusion.subtasks"]
    return {
        "tiling.plan_s": excl[TILE],
        "tiling.probe_s": probe_s,
        "tiling.probes": probes,
        "fusion.s": incl[FUSION],
        "fusion.chunks": counts["fusion.chunks"],
        "fusion.subtasks": subtasks,
        "fusion.chunks_per_subtask":
            counts["fusion.chunks"] / subtasks if subtasks else 0.0,
        "scheduler.s": incl[SCHEDULE],
        "executor.final_s": final_s,
        "executor.kernel_s": incl[KERNEL],
        "executor.subtasks": calls[KERNEL],
        "executor.self_s": excl[EXECUTE],
        "meter.nbytes_calls": calls[NBYTES],
        "meter.nbytes_s": incl[NBYTES],
        "meter.transient_s": incl[TRANSIENT],
        "storage.puts": calls[PUT],
        "storage.gets": calls[GET],
        "storage.put_s": incl[PUT],
        "storage.get_s": incl[GET],
        "storage.reloads": counts["storage.reloads"],
        "frontend.fetch_s": excl[RUN],
        "spark.ship_s": incl[SHIP],
        "spark.ship_mib": counts["spark.ship_bytes"] / (1 << 20),
        "spark.collect_s": incl[COLLECT],
        "trace.unattributed_frac": max(0.0, wall_s - top) / wall_s,
    }


def chrome_events(spans: list[list], origin: float) -> list[dict]:
    """Chrome trace-event ``ph: "X"`` records (microseconds from ``origin``);
    ops go on thread 0, engine spans on thread 1."""
    return [
        {
            "name": s[NAME],
            "cat": s[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": (s[START] - origin) * 1e6,
            "dur": (s[END] - s[START]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"op": s[OP], "span": i, "parent": s[PARENT]},
        }
        for i, s in enumerate(spans)
    ]
