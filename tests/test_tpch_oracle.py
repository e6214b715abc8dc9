"""Every TPC-H-lite query on the Xorbits engine, validated through the
DuckDB oracle (``assert_equivalent``): the engine result is converted to
a Spark DataFrame and diffed against the query's SQL run on DuckDB over
the same inputs — wrong rewrites and broken joins fail here, not just
crashes."""
import numpy as np
import pandas as pd
import pytest

from repro.engines import XorbitsEngine
from repro.oracle import assert_equivalent
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES

SF = 0.002


@pytest.fixture(scope="module")
def tables_all():
    return tpch_tables_pdf(SF)


@pytest.fixture(scope="module")
def engine():
    return XorbitsEngine(band_budget=None, chunk_limit=64_000)


def _spark_safe(pdf: pd.DataFrame):
    # Spark's Arrow path rejects pandas nullable/objects mixes rarely;
    # normalise ints to int64 and keep floats/datetimes as-is.
    out = pdf.reset_index(drop=True).copy()
    for c in out.columns:
        if str(out[c].dtype).startswith(("int", "uint")):
            out[c] = out[c].astype("int64")
    return out


def _to_spark(spark, pdf: pd.DataFrame):
    """createDataFrame with an explicit schema so zero-row results (a
    legitimate outcome at tiny SF) round-trip."""
    from pyspark.sql import types as T

    mapping = {
        "int64": T.LongType(), "int32": T.IntegerType(),
        "float64": T.DoubleType(), "float32": T.FloatType(),
        "bool": T.BooleanType(), "object": T.StringType(),
    }
    fields = []
    for c in pdf.columns:
        dt = str(pdf[c].dtype)
        if dt.startswith("datetime"):
            styp = T.TimestampType()
        else:
            styp = mapping.get(dt, T.StringType())
        fields.append(T.StructField(str(c), styp, True))
    return spark.createDataFrame(pdf, schema=T.StructType(fields))


@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_query_matches_oracle(qname, tables_all, engine, spark):
    q = QUERIES[qname]
    tables = {k: tables_all[k] for k in q.tables}
    res = engine.run_query(q.fn, tables, name=qname)
    assert res.outcome.value == "ok", f"{qname}: {res.detail}"
    got_sdf = _to_spark(spark, _spark_safe(res.result))
    assert_equivalent(got_sdf, q.sql, **tables)


@pytest.mark.parametrize("qname", ["q01", "q02", "q07", "q13"])
def test_static_shuffle_matches_oracle(qname, tables_all, spark):
    """The static 64-way shuffle path (dynamic tiling off): with a few
    mappers split 64 ways, most buckets are empty and are never stored."""
    eng = XorbitsEngine(band_budget=None, chunk_limit=64_000, dynamic_tiling=False,
                        static_reduce="shuffle", static_shuffle_partitions=64)
    test_query_matches_oracle(qname, tables_all, eng, spark)


def test_spark_sim_q15_matches_oracle(tables_all, spark):
    """The Spark policy's 64-way shuffle leaves most chunks of q15's
    revenue table empty; their NaN partials must not hide its ``max``."""
    from repro.engines import SparkPolicySimEngine

    test_query_matches_oracle("q15", tables_all, SparkPolicySimEngine(band_budget=None),
                              spark)


@pytest.mark.parametrize("qname", ["q01", "q03", "q06", "q13", "q18"])
def test_query_matches_spark_sql(qname, tables_all, engine, spark):
    """Second independent implementation: the same SQL through Catalyst
    (temp views) must agree with our engine too."""
    q = QUERIES[qname]
    tables = {k: tables_all[k] for k in q.tables}
    for name, pdf in tables.items():
        spark.createDataFrame(pdf).createOrReplaceTempView(name)
    spark_out = spark.sql(q.sql).toPandas()
    res = engine.run_query(q.fn, tables, name=qname)
    a = _canon(spark_out)
    b = _canon(res.result)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf.reset_index(drop=True)
    pdf = pdf[sorted(pdf.columns)].copy()
    for c in pdf.columns:
        if str(pdf[c].dtype).startswith("datetime"):
            pdf[c] = pd.to_datetime(pdf[c]).dt.strftime("%Y-%m-%d")
        elif pdf[c].dtype == object:
            pdf[c] = pdf[c].astype(str)
    for c in pdf.select_dtypes(include=["float"]).columns:
        pdf[c] = pdf[c].round(4)
    for c in pdf.select_dtypes(include=["int"]).columns:
        pdf[c] = pdf[c].astype("int64")
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)
