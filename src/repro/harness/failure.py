"""Failure harness — reproduces paper Table I ("Number of failed queries
on TPC-H benchmark") and Table II ("Reasons that frameworks fail on
TPC-H SF1000").

The 22 TPC-H-lite queries run on every engine at three scale stand-ins;
outcomes are classified OK / OOM / HANG / API / ERROR by
:func:`repro.engines.base.classify_exception`. The memory model holds
the paper's operating point: per-band budgets are fixed (one simulated
"256 GB worker" ≈ ``band_budget`` lite-bytes) while data grows with SF,
so the budget:data ratio across our three SFs tracks the paper's
10/100/1000 (DESIGN.md § 3/6).

The PySpark column is a composite: API failures come from the REAL
``pyspark.pandas`` (scale-independent, measured once at the smallest
SF), scale failures from the Spark-policy simulator — local Spark
cannot meaningfully OOM a 256 GB worker, so memory behaviour is modelled
with the same meter every other engine uses.
"""
from __future__ import annotations

from typing import Optional

import pandas as pd

from repro.engines import (
    DaskSimEngine,
    ModinSimEngine,
    Outcome,
    PandasSimEngine,
    SparkPandasEngine,
    SparkPolicySimEngine,
    XorbitsEngine,
)
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES

#: paper SF → lite stand-in SF. Ratios 1 : 10 : 50 track the paper's
#: 1 : 10 : 100 closely enough to keep all three operating points
#: (everything-fits / big-table-queries-fail / nothing-fits) while
#: remaining laptop-runnable.
SF_MAP = {"SF10": 0.01, "SF100": 0.1, "SF1000": 0.5}

#: per-band budget in lite bytes ≈ one paper worker's 256 GB.
BAND_BUDGET = 96 << 20


def make_engines(band_budget: int = BAND_BUDGET, spark=None) -> dict:
    """The Table I engine roster (PySpark API runs are added by
    :func:`run_suite` when a SparkSession is supplied)."""
    return {
        "pandas": PandasSimEngine(band_budget),
        "pyspark-sim": SparkPolicySimEngine(band_budget),
        "dask": DaskSimEngine(band_budget),
        "modin": ModinSimEngine(band_budget),
        "xorbits": XorbitsEngine(band_budget),
    }


def run_suite(
    sfs: Optional[dict] = None,
    engines: Optional[dict] = None,
    queries: Optional[list[str]] = None,
    spark=None,
    verbose: bool = False,
) -> pd.DataFrame:
    """Run queries × engines × SFs; returns a tidy result frame."""
    sfs = sfs or SF_MAP
    engines = engines or make_engines(spark=spark)
    names = queries or list(QUERIES)
    rows = []
    for sf_label, sf in sfs.items():
        tables_all = tpch_tables_pdf(sf)
        for qname in names:
            q = QUERIES[qname]
            tables = {k: tables_all[k] for k in q.tables}
            for ename, engine in engines.items():
                res = engine.run_query(q.fn, tables, name=qname)
                rows.append(
                    {
                        "sf": sf_label,
                        "engine": ename,
                        "query": qname,
                        "outcome": res.outcome.value,
                        "seconds": round(res.seconds, 3),
                        "detail": res.detail.splitlines()[0] if res.detail else "",
                    }
                )
                if verbose:
                    print(f"[{sf_label}] {qname:4s} {ename:12s} "
                          f"{res.outcome.value:5s} {res.seconds:6.2f}s "
                          f"{rows[-1]['detail'][:80]}")
    df = pd.DataFrame(rows)
    if spark is not None:
        df = merge_pyspark_column(df, spark, sfs, names, verbose=verbose)
    return df


def run_real_pyspark(
    spark, sf: float, queries: Optional[list[str]] = None, verbose: bool = False
) -> pd.DataFrame:
    """Run the suite on the real ``pyspark.pandas`` at one (small) SF —
    API compatibility is scale-independent."""
    engine = SparkPandasEngine(spark)
    tables_all = tpch_tables_pdf(sf)
    rows = []
    for qname in queries or list(QUERIES):
        q = QUERIES[qname]
        tables = {k: tables_all[k] for k in q.tables}
        res = engine.run_query(q.fn, tables, name=qname)
        rows.append(
            {
                "query": qname,
                "outcome": res.outcome.value,
                "seconds": round(res.seconds, 3),
                "detail": res.detail.splitlines()[0] if res.detail else "",
            }
        )
        if verbose:
            print(f"[ps] {qname:4s} {res.outcome.value:5s} {res.seconds:6.2f}s "
                  f"{rows[-1]['detail'][:80]}")
    return pd.DataFrame(rows)


def merge_pyspark_column(
    results: pd.DataFrame, spark, sfs: dict, queries: list[str], verbose=False
) -> pd.DataFrame:
    """Build the composite 'pyspark' rows: real-ps API outcome wins when
    it is an API failure; otherwise the Spark-policy sim's outcome."""
    api = run_real_pyspark(spark, min(sfs.values()), queries, verbose=verbose)
    api_map = dict(zip(api["query"], api["outcome"]))
    detail_map = dict(zip(api["query"], api["detail"]))
    sim = results[results["engine"] == "pyspark-sim"]
    rows = []
    for _, r in sim.iterrows():
        out = r.to_dict()
        out["engine"] = "pyspark"
        if api_map.get(r["query"]) in (Outcome.API.value, Outcome.ERROR.value):
            out["outcome"] = Outcome.API.value
            out["detail"] = detail_map.get(r["query"], "")
        rows.append(out)
    return pd.concat([results, pd.DataFrame(rows)], ignore_index=True)


# -- table renderers --------------------------------------------------------


def table1(results: pd.DataFrame, engines: Optional[list[str]] = None) -> pd.DataFrame:
    """Paper Table I: failed query counts per engine per SF."""
    engines = engines or ["pandas", "pyspark", "dask", "modin", "xorbits"]
    avail = [e for e in engines if (results["engine"] == e).any()]
    failed = results[results["outcome"] != "ok"]
    t = (
        failed.groupby(["sf", "engine"]).size().unstack(fill_value=0)
        .reindex(index=list(dict.fromkeys(results["sf"])), fill_value=0)
        .reindex(columns=avail, fill_value=0)
    )
    t.index.name = "SF"
    return t


def table2(results: pd.DataFrame, sf: str = "SF1000",
           engines: Optional[list[str]] = None) -> pd.DataFrame:
    """Paper Table II: failure reasons at the largest SF."""
    engines = engines or ["pyspark", "dask", "modin", "xorbits"]
    avail = [e for e in engines if (results["engine"] == e).any()]
    sub = results[(results["sf"] == sf) & results["engine"].isin(avail)]
    reason_order = ["api", "hang", "oom", "error"]
    reason_names = {
        "api": "API Compatibility", "hang": "Hang",
        "oom": "OOM or Killed", "error": "Other Error",
    }
    rows = {}
    for r in reason_order:
        rows[reason_names[r]] = {
            e: int(((sub["engine"] == e) & (sub["outcome"] == r)).sum())
            for e in avail
        }
    t = pd.DataFrame(rows).T
    t.loc["Total"] = [
        int(((sub["engine"] == e) & (sub["outcome"] != "ok")).sum()) for e in avail
    ]
    return t
