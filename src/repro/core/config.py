"""Engine configuration knobs.

Every policy the paper ablates is a flag here so benchmarks can toggle
dynamic tiling, graph-level fusion, and operator-level fusion
independently (paper Fig. 9), and so baseline engine simulators can run
the same substrate with a different partitioning policy (paper Tables
I/II). Only the knobs live here: what dynamic tiling decided is on each
tileable (``Tileable.decision``) and the probe count on the tiler
(``GraphTiler.yields``).
"""
from __future__ import annotations

from dataclasses import dataclass


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

