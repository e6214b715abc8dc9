"""Column pruning (paper § V-A) and its incremental invalidation."""
import numpy as np
import pandas as pd

from repro.core.config import EngineConfig
from repro.core.graph import build_dag
from repro.core.pruning import apply_pruning, compute_required
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession


def session(**kw):
    defaults = dict(chunk_limit=20_000)
    defaults.update(kw)
    return XSession(EngineConfig(**defaults))


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
        req = compute_required(dag)
        assert req[df._t.key] == {"a", "b"}

    def test_groupby_requires_keys_and_values(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        out = df.groupby("a").agg(total=("b", "sum"))
        dag = build_dag([out._t])
        req = compute_required(dag)
        # the source only needs the key and the aggregated column — the
        # intermediate projection has already narrowed it
        assert req[df._t.key] is not None
        assert {"a", "b"} <= req[df._t.key]
        assert "unused" not in req[df._t.key]

    def test_sink_requires_all(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        dag = build_dag([df._t])
        req = compute_required(dag)
        assert req[df._t.key] is None


class TestSourcePruning:
    def test_source_loads_only_needed_columns(self):
        sess = session()
        frame = pdf()
        df = xpd.from_pandas(frame, sess)
        out = df.groupby("a").agg(total=("b", "sum")).to_pandas()
        assert df._t.op.pruned_columns is not None
        assert "unused" not in df._t.op.pruned_columns
        # chunks really carry fewer columns
        meta = df._t.chunks[0].meta
        assert meta.observed and "unused" not in meta.columns
        exp = frame.groupby("a").agg(total=("b", "sum"))
        pd.testing.assert_frame_equal(out.sort_index(), exp, check_dtype=False)

    def test_pruning_disabled(self):
        sess = session(column_pruning=False)
        df = xpd.from_pandas(pdf(), sess)
        df.groupby("a").agg(total=("b", "sum")).to_pandas()
        assert df._t.op.pruned_columns is None


class TestIncrementalInvalidation:
    def test_later_run_widens_pruned_source(self):
        """A scalar run prunes the source; a later run needing more
        columns must re-tile instead of reading stale narrow chunks —
        the deferred-evaluation bug class the tiler guards against."""
        sess = session()
        frame = pdf()
        df = xpd.from_pandas(frame, sess)
        total = df["b"].sum()  # prunes the source down to {b}
        assert abs(total - frame["b"].sum()) < 1e-9
        assert df._t.op.pruned_columns == ["b"]
        # now the same lazy frame is used for a groupby needing a, c
        out = df.groupby("a").agg(m=("c", "mean")).to_pandas()
        exp = frame.groupby("a").agg(m=("c", "mean"))
        pd.testing.assert_frame_equal(out.sort_index(), exp, check_dtype=False)

    def test_stale_detection_unit(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        narrow = df[["b"]]
        sess.run(narrow._t)
        assert df._t.op.pruned_columns == ["b"]
        wide = df[["a", "c"]]
        dag = build_dag([wide._t])
        stale = apply_pruning(dag)
        assert [t.key for t in stale] == [df._t.key]

    def test_no_invalidation_when_covered(self):
        sess = session()
        df = xpd.from_pandas(pdf(), sess)
        sess.run(df[["a", "b"]]._t)
        dag = build_dag([df[["b"]]._t])
        assert apply_pruning(dag) == []
