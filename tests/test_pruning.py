"""Column pruning (paper § V-A), per run: a later run tiles afresh."""
import gc
import weakref

import numpy as np
import pandas as pd

from repro.core.config import EngineConfig
from repro.core.graph import build_dag
from repro.core.operators.base import DataChunk
from repro.core.operators.dataframe import ScalarAgg
from repro.core.pruning import compute_required
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession


def session(**kw):
    defaults = dict(chunk_limit=20_000)
    defaults.update(kw)
    return XSession(EngineConfig(**defaults))


def source_chunks(t):
    """The source chunks in the chunk graph of a run's target ``t``."""
    return [c for c in build_dag(t.chunks).nodes() if isinstance(c.op, DataChunk)]


def source_columns(t):
    """The columns the source chunks of ``t``'s chunk graph loaded."""
    return {col for c in source_chunks(t) for col in c.op.data.columns}


def pdf(n=500):
    g = np.random.default_rng(1)
    return pd.DataFrame(
        {
            "a": g.integers(0, 10, n),
            "b": g.random(n),
            "c": g.random(n),
            "unused": g.random(n),
        }
    )


class TestComputeRequired:
    def test_projection_narrows(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        out = df[["a", "b"]]
        dag = build_dag([out._t])
        req = compute_required(dag, [out._t])
        assert req[df._t.key] == {"a", "b"}

    def test_groupby_requires_keys_and_values(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        out = df.groupby("a").agg(total=("b", "sum"))
        dag = build_dag([out._t])
        req = compute_required(dag, [out._t])
        # the source only needs the key and the aggregated column — the
        # intermediate projection has already narrowed it
        assert req[df._t.key] is not None
        assert {"a", "b"} <= req[df._t.key]
        assert "unused" not in req[df._t.key]

    def test_sink_requires_all(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        dag = build_dag([df._t])
        req = compute_required(dag, [df._t])
        assert req[df._t.key] is None


class TestSourcePruning:
    def test_source_loads_only_needed_columns(self):
        sess = session()
        frame = pdf()
        df = xpd.from_pandas(frame, sess)
        agg = df.groupby("a").agg(total=("b", "sum"))
        out = agg.to_pandas()
        loaded = source_columns(agg._t)
        assert loaded and "unused" not in loaded
        # chunks really carry fewer columns
        (first,) = [c for c in source_chunks(agg._t) if c.index == (0, 0)]
        meta = first.meta
        assert meta.observed and "unused" not in meta.columns
        exp = frame.groupby("a").agg(total=("b", "sum"))
        pd.testing.assert_frame_equal(out.sort_index(), exp, check_dtype=False)

    def test_pruning_disabled(self):
        sess = session(column_pruning=False)
        df = xpd.from_pandas(pdf(), sess)
        agg = df.groupby("a").agg(total=("b", "sum"))
        agg.to_pandas()
        assert source_columns(agg._t) == {"a", "b", "c", "unused"}

    def test_target_and_its_projection_in_one_run(self):
        """A source that is a run's target keeps every column, even when
        another target of the same run reads one column of it."""
        sess = session()
        frame = pdf()
        df = xpd.from_pandas(frame, sess)
        full, narrow = sess.run(df._t, df[["b"]]._t)
        pd.testing.assert_frame_equal(full, frame)
        pd.testing.assert_frame_equal(narrow, frame[["b"]])

    def test_dropped_result_frees_pruned_source(self):
        """Only a run's target keeps its chunks: once the result is
        dropped, nothing holds the pruned copy of the source."""
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        out = df[["b"]]
        out.to_pandas()
        (src,) = source_chunks(out._t)
        assert list(src.op.data.columns) == ["b"]
        data = weakref.ref(src.op.data)
        del src, out
        gc.collect()
        assert df._t.chunks is None
        assert data() is None
        assert sess.executor.refs == {}


class TestIncrementalInvalidation:
    """A later run over a source an earlier run pruned: nothing narrow
    is left to invalidate, since only the earlier targets kept chunks."""

    def test_later_run_widens_pruned_source(self):
        """A scalar run prunes the source; a later run needing more
        columns must load them instead of reading stale narrow chunks —
        the deferred-evaluation bug class per-run pruning rules out."""
        sess = session()
        frame = pdf()
        df = xpd.from_pandas(frame, sess)
        t = ScalarAgg("sum").new_tileable([df["b"]._t], kind="scalar")
        (total,) = sess.run(t)  # prunes the source down to {b}
        assert abs(total - frame["b"].sum()) < 1e-9
        assert source_columns(t) == {"b"}
        # now the same lazy frame is used for a groupby needing a, c
        agg = df.groupby("a").agg(m=("c", "mean"))
        out = agg.to_pandas()
        assert source_columns(agg._t) == {"a", "c"}
        exp = frame.groupby("a").agg(m=("c", "mean"))
        pd.testing.assert_frame_equal(out.sort_index(), exp, check_dtype=False)
