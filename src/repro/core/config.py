"""Engine configuration knobs.

Every policy the paper ablates is a flag here so benchmarks can toggle
dynamic tiling, graph-level fusion, and operator-level fusion
independently (paper Fig. 9), and so baseline engine simulators can run
the same substrate with a different partitioning policy (paper Tables
I/II).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EngineConfig:
    """Knobs of the reproduction engine.

    Attributes mirror the mechanisms named in the paper:

    * ``chunk_limit`` — the configured chunk-size upper bound (Section
      IV-C "Auto Merge": "the configuration file predefines a chunk size
      limit").
    * ``dynamic_tiling`` — master switch for the yield-based switch
      between tiling and execution (Section IV-B).
    * ``tree_reduce_threshold`` — aggregated-size threshold below which
      the auto reduce selection picks tree-reduce (Section IV-C).
    * ``broadcast_threshold`` — total bytes under which the small side of
      a merge is broadcast instead of shuffled (the TPCx-AI UC10
      imbalance case in Section VI-B).
    * ``graph_fusion`` / ``operator_fusion`` — Section V-A switches.
    """

    chunk_limit: int = 8 << 20  # 8 MiB default chunk upper bound
    dynamic_tiling: bool = True
    tree_reduce_threshold: int = 4 << 20
    broadcast_threshold: int = 4 << 20
    graph_fusion: bool = True
    operator_fusion: bool = True
    column_pruning: bool = True
    # Skew handling: a single join key whose estimated post-join bytes on
    # one reducer exceed `skew_key_limit` is treated as hot and handled
    # with a broadcast of the build side's hot rows.
    skew_key_limit: int | None = None  # default: chunk_limit
    # Static-policy baselines (paper Tables I/II): when dynamic_tiling is
    # False these pick the partitioning instead of runtime metadata.
    static_reduce: str = "tree"  # "tree" | "shuffle"
    static_shuffle_partitions: int | None = None  # None → n input chunks
    # Scheduler / memory model.
    n_workers: int = 1
    bands_per_worker: int = 2
    band_memory_limit: int | None = None  # bytes per band; None → unmetered
    # Dask-like schedulers fall over when the task graph explodes (the
    # paper's "Hang" rows); None disables the model.
    max_tasks: int | None = None
    # Eager engines (Modin) materialise and retain every intermediate —
    # the user holds a handle to each — so nothing is freed during a
    # query. Lazy engines (Xorbits, Dask, Spark) refcount and free.
    free_intermediates: bool = True
    # Whether stored chunks may spill to disk under memory pressure.
    # Xorbits/Dask/Spark spill; Modin-on-Ray's plasma store pins every
    # referenced object, and under churn its spill path fell over (the
    # paper's dead Ray workers) — modelled as allow_spill=False.
    allow_spill: bool = True

    def resolved_skew_key_limit(self) -> int:
        return self.skew_key_limit if self.skew_key_limit is not None else self.chunk_limit


@dataclass
class TileStats:
    """Counters recorded while tiling — asserted on by tests and reported
    by the ablation benchmarks (e.g. "dynamic tiling executed N probe
    chunks", "merge chose broadcast")."""

    probe_executions: int = 0
    yields: int = 0
    # decision records, one per op instance: keyed by the tiled
    # tileable's key, then the op and its keys
    reduce_choices: dict = field(default_factory=dict)  # -> "tree"|"shuffle"
    merge_choices: dict = field(default_factory=dict)  # -> "broadcast"|"shuffle"|"skew"
