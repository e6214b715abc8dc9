"""Metamorphic oracle test: every TPC-H-lite query gives the DuckDB
result under every combination of the engine's policy switches, and at
a small chunk limit too.

At the default chunk limit, {dynamic tiling} × {graph + operator fusion}
× {column pruning} each run on and off. At ``chunk_limit=64_000`` (with
dynamic tiling, fusion and pruning on) inputs split into many chunks,
so the combine trees, shuffles and merge choices all see several
levels. ``static64`` is static tiling with every groupby and merge a
64-bucket shuffle, so each reducer joins or aggregates many mappers'
blocks. Each run has a deadline, so a hang fails its case instead of
stalling the suite."""
import itertools

import duckdb
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession
from repro.oracle import _canon
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES

SF = 0.01
#: one step of the canonical form's 6-place rounding: summing in another
#: order can move the last digit to either side of a rounding boundary
ATOL = 1e-6
DEADLINE_S = 60

CONFIGS = {
    f"dyn{int(dyn)}-fuse{int(fuse)}-prune{int(prune)}": dict(
        dynamic_tiling=dyn, graph_fusion=fuse, operator_fusion=fuse,
        column_pruning=prune)
    for dyn, fuse, prune in itertools.product((True, False), repeat=3)
}
CONFIGS["chunk64k"] = dict(chunk_limit=64_000)
CONFIGS["static64"] = dict(dynamic_tiling=False, static_reduce="shuffle",
                           static_shuffle_partitions=64)


@pytest.fixture(scope="module")
def tables():
    return tpch_tables_pdf(SF)


@pytest.fixture(scope="module")
def expected(tables):
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return {q: con.execute(QUERIES[q].sql).fetchdf() for q in QUERIES}
    finally:
        con.close()


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_query_matches_duckdb(qname, config, tables, expected, deadline):
    q = QUERIES[qname]
    sess = XSession(EngineConfig(**CONFIGS[config]))
    try:
        with deadline(DEADLINE_S):
            frames = {n: xpd.from_pandas(tables[n], sess) for n in q.tables}
            got = q.fn(frames)
            # scalar queries assemble their one-row frame in pandas
            got = got.to_pandas() if hasattr(got, "to_pandas") else got
    finally:
        sess.close()
    exp = expected[qname]
    assert isinstance(got, pd.DataFrame)
    assert set(got.columns) == set(exp.columns)
    pd.testing.assert_frame_equal(_canon(got), _canon(exp), check_dtype=False,
                                  atol=ATOL)
