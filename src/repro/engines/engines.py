"""Concrete engines (DESIGN.md § 3).

All simulator engines share one substrate (chunks + fusion + scheduler +
metered storage); each applies the partitioning/reduce policy of the
framework it stands in for:

============  =======================================================
Engine        Policy
============  =======================================================
Xorbits       dynamic tiling ON: probe metadata, auto reduce
              selection, broadcast/skew-aware merge, spill
pandas        one band, whole-table chunks — a single node
Modin (sim)   static source-size partitioning, tree-reduce only,
              **eager**: retains every intermediate (no freeing)
Dask (sim)    static row partitions, groupby gathers to a single
              partition (``split_out=1`` default), plain hash-shuffle
              merge sized from input chunk counts, task-count hang
              threshold, documented API gaps (e.g. no positional iloc)
Spark (sim)   every groupby and merge is a static hash shuffle with a
              fixed partition count (the ``spark.sql.shuffle.partitions``
              default); nothing is broadcast and nothing is re-tiled at
              runtime
PySpark       the REAL ``pyspark.pandas`` (API behaviour measured, not
              simulated; memory behaviour is out of its scope locally)
============  =======================================================
"""
from __future__ import annotations

from typing import Any, Optional

import pandas as pd

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession

from .base import Engine


# 1 "paper GB" of budget per simulated band, expressed in lite bytes.
# The harness passes band_budget so that budget / dataset-bytes matches
# the paper's 256 GB-per-worker vs SF ratio (harness/failure.py).
DEFAULT_BAND_BUDGET = 96 << 20


class _SimEngineBase(Engine):
    """Engines that execute on our chunked substrate."""

    def __init__(self, band_budget: Optional[int] = DEFAULT_BAND_BUDGET,
                 spark=None) -> None:
        self.band_budget = band_budget
        self.spark = spark
        self._session: Optional[XSession] = None

    def config(self) -> EngineConfig:  # pragma: no cover - abstract
        raise NotImplementedError

    def materialize(self, tables: dict[str, pd.DataFrame]) -> dict[str, Any]:
        cfg = self.config()
        self._session = XSession(cfg, spark=self.spark)
        return {
            name: self.wrap_frame(xpd.from_pandas(pdf, self._session))
            for name, pdf in tables.items()
        }

    def wrap_frame(self, df):
        return df

    def collect(self, result: Any) -> pd.DataFrame:
        if hasattr(result, "_shimmed"):
            result = result._df
        if hasattr(result, "to_pandas"):
            return result.to_pandas()
        return result

    def cleanup(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None

    @property
    def session(self) -> Optional[XSession]:
        return self._session


class XorbitsEngine(_SimEngineBase):
    """The paper's system: dynamic tiling + all optimizations on."""

    name = "xorbits"

    def __init__(self, band_budget=DEFAULT_BAND_BUDGET, n_workers: int = 4,
                 bands_per_worker: int = 2, chunk_limit: int = 8 << 20,
                 spark=None, **cfg_overrides) -> None:
        super().__init__(band_budget, spark=spark)
        self.n_workers = n_workers
        self.bands_per_worker = bands_per_worker
        self.chunk_limit = chunk_limit
        self.cfg_overrides = cfg_overrides

    def config(self) -> EngineConfig:
        kw = dict(
            chunk_limit=self.chunk_limit,
            dynamic_tiling=True,
            tree_reduce_threshold=self.chunk_limit // 2,
            broadcast_threshold=self.chunk_limit // 2,
            n_workers=self.n_workers,
            bands_per_worker=self.bands_per_worker,
            band_memory_limit=self.band_budget,
        )
        kw.update(self.cfg_overrides)  # ablations may override any knob
        return EngineConfig(**kw)


class PandasSimEngine(_SimEngineBase):
    """Single-node pandas: one band, one chunk per table.

    Every operator's transient working set is whole-table sized; the
    meter kills anything that exceeds the single node's memory — the
    paper's Table I pandas column."""

    name = "pandas"

    def config(self) -> EngineConfig:
        return EngineConfig(
            chunk_limit=1 << 62,  # never split: it's a single node
            dynamic_tiling=False,
            static_reduce="tree",
            n_workers=1,
            bands_per_worker=1,
            band_memory_limit=self.band_budget,
            # eager: each statement executes immediately on the full
            # frame — no plan, so no projection pushdown at load
            column_pruning=False,
        )


class ModinSimEngine(_SimEngineBase):
    """Modin-on-Ray policy: partition from source size only, always
    tree-reduce (full-axis gather), eager execution that retains every
    intermediate — the documented behaviours behind its Table II column
    (22/22 "OOM or Killed" at SF1000)."""

    name = "modin"

    def __init__(self, band_budget=DEFAULT_BAND_BUDGET, n_workers: int = 4,
                 bands_per_worker: int = 2, spark=None) -> None:
        super().__init__(band_budget, spark=spark)
        self.n_workers = n_workers
        self.bands_per_worker = bands_per_worker

    def config(self) -> EngineConfig:
        return EngineConfig(
            chunk_limit=8 << 20,
            dynamic_tiling=False,
            static_reduce="tree",
            n_workers=self.n_workers,
            bands_per_worker=self.bands_per_worker,
            band_memory_limit=self.band_budget,
            free_intermediates=False,  # eager: user holds every handle
            allow_spill=False,  # plasma-store collapse model (DESIGN § 3)
            column_pruning=False,  # eager: no plan to push projections into
            # eager execution materialises every statement into the
            # object store — there is no deferred graph to fuse
            graph_fusion=False,
            operator_fusion=False,
        )


class DaskSimEngine(_SimEngineBase):
    """Dask policy: fixed blocksize partitions, ``split_out=1`` groupby
    (gather to one partition), shuffle merge sized by input partition
    count, a task-graph-size hang threshold, and the documented API
    gaps reproduced as shims (paper Listing 1 / Table II)."""

    name = "dask"

    def __init__(self, band_budget=DEFAULT_BAND_BUDGET, n_workers: int = 4,
                 bands_per_worker: int = 2, max_tasks: int = 4000,
                 spark=None) -> None:
        super().__init__(band_budget, spark=spark)
        self.n_workers = n_workers
        self.bands_per_worker = bands_per_worker
        self.max_tasks = max_tasks

    def config(self) -> EngineConfig:
        return EngineConfig(
            chunk_limit=8 << 20,
            dynamic_tiling=False,
            static_reduce="tree",  # dask groupby.agg defaults to split_out=1
            n_workers=self.n_workers,
            bands_per_worker=self.bands_per_worker,
            band_memory_limit=self.band_budget,
            max_tasks=self.max_tasks,
        )

    def wrap_frame(self, df):
        from .shims import DaskShimFrame

        return DaskShimFrame(df)


class SparkPolicySimEngine(_SimEngineBase):
    """Spark's partitioning without runtime re-tiling: every groupby and
    merge is a hash shuffle into a fixed partition count. Unlike Spark's
    rule-based small-table broadcast, this policy never broadcasts. Used
    for the memory/scale cells of the PySpark column; API cells come from
    the real ``pyspark.pandas`` (:class:`SparkPandasEngine`)."""

    name = "spark-sim"

    def __init__(self, band_budget=DEFAULT_BAND_BUDGET, n_workers: int = 4,
                 bands_per_worker: int = 2, shuffle_partitions: int = 64,
                 spark=None) -> None:
        super().__init__(band_budget, spark=spark)
        self.n_workers = n_workers
        self.bands_per_worker = bands_per_worker
        self.shuffle_partitions = shuffle_partitions

    def config(self) -> EngineConfig:
        return EngineConfig(
            chunk_limit=8 << 20,
            dynamic_tiling=False,
            static_reduce="shuffle",
            static_shuffle_partitions=self.shuffle_partitions,
            n_workers=self.n_workers,
            bands_per_worker=self.bands_per_worker,
            band_memory_limit=self.band_budget,
        )


class SparkPandasEngine(Engine):
    """The real pandas API on Spark (Catalyst execution)."""

    name = "pyspark"

    def __init__(self, spark) -> None:
        self.spark = spark

    def materialize(self, tables: dict[str, pd.DataFrame]) -> dict[str, Any]:
        import pyspark.pandas as ps

        return {name: ps.from_pandas(pdf) for name, pdf in tables.items()}

    def collect(self, result: Any) -> pd.DataFrame:
        if hasattr(result, "to_pandas"):
            return result.to_pandas()
        return result
