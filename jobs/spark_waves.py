"""Where a Spark job pays: every multi-subtask wave timed in-process and
as one Spark job (ROADMAP item 6).

    python jobs/spark_waves.py tpch              # spark_tpch's 5 queries, SF 0.05
    python jobs/spark_waves.py ops --sf 0.2 1    # one groupby, one merge

Each wave of two or more subtasks runs twice on a ``SparkExecutor``
session: in-process (``BaseExecutor._run_specs``), then as one Spark
job over the same ``(subtask, inputs, sizes)`` items. The in-process
results are the ones stored, so the query runs as usual. A row gives the
wave's subtasks and input MiB (the bytes ``SparkExecutor`` gates on),
both times, and where the gate sends the wave. ``ops`` also times each
op end to end on a Spark session and on a local one, with the engine's
own gate.

``tpch`` uses the TPC-H-lite tables; ``ops`` uses numeric frames with
TPC-H row counts (6 M lineitem and 1.5 M orders rows per SF, 24 and
16 bytes a row), which keeps an SF 1 run near 200 MiB of input.
"""
import argparse
import os
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.join(os.path.dirname(__file__)))
from _common import emit, get_spark  # noqa: E402

from repro.core.executor import BaseExecutor, SparkExecutor, run_subtask  # noqa: E402
from repro.engines import XorbitsEngine  # noqa: E402
from repro.frontend import dataframe as xpd  # noqa: E402
from repro.frontend.session import XSession  # noqa: E402
from repro.synth_data import tpch_tables_pdf  # noqa: E402
from repro.workloads.tpch import QUERIES  # noqa: E402

SPARK_TPCH = ["q01", "q03", "q06", "q09", "q13"]
MIB = 1 << 20


class WaveTimer(SparkExecutor):
    """A ``SparkExecutor`` that runs every multi-subtask wave both ways
    and records one row per wave."""

    rows: list = []
    label = ""

    def _run_specs(self, subs):
        if len(subs) == 1:
            return BaseExecutor._run_specs(self, subs)
        nbytes = sum(map(self._input_nbytes, subs))
        t0 = time.perf_counter()
        local = list(BaseExecutor._run_specs(self, subs))
        t1 = time.perf_counter()
        items = [(sub, *self._gather(sub)) for sub in subs]
        (self.spark.sparkContext.parallelize(items, len(items))
         .map(lambda it: run_subtask(*it)).collect())
        t2 = time.perf_counter()
        self.rows.append({
            "op": self.label, "subtasks": len(subs),
            "input_MiB": round(nbytes / MIB, 2),
            "in_process_s": round(t1 - t0, 3), "spark_s": round(t2 - t1, 3),
            "gate": "spark" if nbytes >= self.cfg.chunk_limit else "in-process",
        })
        return iter(local)


def config():
    """The benchmark's operating point (4 workers x 2 bands, 8 MiB
    chunks), unmetered so an SF 1 op cannot run out of band memory."""
    return XorbitsEngine(band_memory_limit=None).config()


def timing_session(spark, label: str) -> XSession:
    sess = XSession(config())
    sess.executor = WaveTimer(spark, sess.cfg, sess.storage)
    sess.executor.label = label
    sess.tiler.executor = sess.executor
    return sess


def numeric_tables(sf: float) -> dict:
    g = np.random.default_rng(0)
    n_orders, n_lines = int(1_500_000 * sf), int(6_000_000 * sf)
    return {
        "lineitem": pd.DataFrame({
            "l_orderkey": g.integers(0, n_orders, n_lines),
            "l_quantity": g.integers(1, 51, n_lines).astype("float64"),
            "l_extendedprice": g.random(n_lines) * 1e4,
        }),
        "orders": pd.DataFrame({
            "o_orderkey": np.arange(n_orders),
            "o_totalprice": g.random(n_orders) * 1e5,
        }),
    }


def groupby_op(t):
    """High-cardinality groupby: the shuffle path."""
    return t["lineitem"].groupby("l_orderkey").agg(
        qty=("l_quantity", "sum"), price=("l_extendedprice", "sum"))


def merge_op(t):
    """Shuffle merge of the two big tables, then a small aggregate."""
    m = t["orders"].merge(t["lineitem"], left_on="o_orderkey",
                          right_on="l_orderkey")
    return m.groupby("l_quantity").agg(price=("l_extendedprice", "sum"))


def run_tpch(spark) -> None:
    tables = tpch_tables_pdf(0.05, sorted({n for q in SPARK_TPCH
                                           for n in QUERIES[q].tables}))
    for q in SPARK_TPCH:
        sess = timing_session(spark, q)
        out = QUERIES[q].fn({n: xpd.from_pandas(p, sess)
                             for n, p in tables.items()})
        if hasattr(out, "to_pandas"):  # some queries end in pandas
            out.to_pandas()
        sess.close()
    emit("spark_tpch waves, SF 0.05", pd.DataFrame(WaveTimer.rows))


def run_ops(spark, sfs) -> None:
    ends = []
    for sf in sfs:
        tables = numeric_tables(sf)
        for name, op in (("groupby", groupby_op), ("merge", merge_op)):
            for where in ("local", "spark"):
                sess = XSession(config(), spark=spark if where == "spark" else None)
                frames = {n: xpd.from_pandas(p, sess) for n, p in tables.items()}
                t0 = time.perf_counter()
                op(frames).to_pandas()
                ends.append({"sf": sf, "op": name, "session": where,
                             "wall_s": round(time.perf_counter() - t0, 2)})
                sess.close()
            sess = timing_session(spark, f"{name} SF {sf}")
            op({n: xpd.from_pandas(p, sess) for n, p in tables.items()}).to_pandas()
            sess.close()
        del tables
    emit("waves, in-process vs Spark", pd.DataFrame(WaveTimer.rows))
    emit("ops end to end, engine gate", pd.DataFrame(ends))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["tpch", "ops"])
    ap.add_argument("--sf", type=float, nargs="+", default=[0.2, 1.0])
    args = ap.parse_args()
    spark = get_spark("spark_waves")
    spark.sparkContext.setLogLevel("ERROR")
    # start the Python workers before anything is timed
    spark.sparkContext.parallelize(range(4), 4).count()
    if args.mode == "tpch":
        run_tpch(spark)
    else:
        run_ops(spark, args.sf)
    spark.stop()


if __name__ == "__main__":
    main()
