"""Dynamic tiling (paper § IV): yield-based probes, iterative tiling
(the 4-8-5 iloc example), auto reduce selection, and merge strategy
selection (broadcast / shuffle / skew)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession


def session(**kw):
    defaults = dict(chunk_limit=20_000, n_workers=2, bands_per_worker=2)
    defaults.update(kw)
    return XSession(EngineConfig(**defaults))


def skewed(n=4000, hot_frac=0.7, seed=0):
    g = np.random.default_rng(seed)
    n_hot = int(n * hot_frac)
    keys = np.concatenate([
        np.zeros(n_hot, dtype="int64"),
        g.integers(1, 500, n - n_hot),
    ])
    g.shuffle(keys)
    return pd.DataFrame({"k": keys, "v": g.random(n)})


class TestIterativeTiling:
    def test_paper_485_example(self):
        """Fig. 3c: the source splits into 3 chunks whose *filtered*
        lengths are 4, 8, 5; the tenth row of the filtered frame lives
        in the second chunk, found via iterative tiling."""
        from repro.core.chunk import payload_nbytes

        sess = session(chunk_limit=1 << 30)
        # 3 source chunks of 10 rows; rows < 1 survive the filter:
        # 4, 8, and 5 survivors respectively (values encode position)
        pdf = pd.concat([
            pd.DataFrame({"col": [0.1, 0.2, 0.3, 0.4] + [2.0] * 6}),
            pd.DataFrame({"col": [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
                          + [2.0] * 2}),
            pd.DataFrame({"col": [0.11, 0.12, 0.13, 0.14, 0.15] + [2.0] * 5}),
        ]).reset_index(drop=True)
        df = xpd.from_pandas(pdf, sess)
        df._t.op.chunk_bytes = payload_nbytes(pdf) // 3 + 1  # → 3 chunks
        filtered = df[df["col"] < 1]
        assert len(filtered._t.chunks or []) == 0 or True
        row = filtered.iloc[9]  # the tenth filtered row (0-indexed 9)
        expected = pdf[pdf["col"] < 1].iloc[9]
        assert row["col"] == expected["col"] == 0.85
        # the filter chunks really were 4, 8, 5 long
        lengths = [c.meta.shape[0] for c in filtered._t.chunks]
        assert lengths == [4, 8, 5]
        # iterative tiling had to yield at least once (unknown lengths)
        assert sess.stats.yields >= 1

    def test_iloc_slice_across_chunks(self):
        sess = session(chunk_limit=2_000)
        pdf = pd.DataFrame({"x": np.arange(2000)})
        df = xpd.from_pandas(pdf, sess)
        filtered = df[df["x"] % 3 == 0]
        got = filtered.iloc[100:140].to_pandas()
        exp = pdf[pdf["x"] % 3 == 0].iloc[100:140]
        assert list(got["x"]) == list(exp["x"])

    def test_iloc_negative_index(self):
        sess = session()
        pdf = pd.DataFrame({"x": np.arange(500)})
        df = xpd.from_pandas(pdf, sess)
        assert df.iloc[-1]["x"] == 499

    def test_iloc_out_of_bounds(self):
        sess = session(chunk_limit=1_000)
        df = xpd.from_pandas(pd.DataFrame({"x": np.arange(100)}), sess)
        filtered = df[df["x"] < 10]
        with pytest.raises(IndexError):
            filtered.iloc[50]

    def test_static_mode_never_yields(self):
        sess = session(dynamic_tiling=False, chunk_limit=2_000)
        pdf = pd.DataFrame({"x": np.arange(1000)})
        df = xpd.from_pandas(pdf, sess)
        got = df[df["x"] > 500].iloc[10]
        assert got["x"] == pdf[pdf["x"] > 500].iloc[10]["x"]
        assert sess.stats.yields == 0


class TestAutoReduceSelection:
    def test_low_cardinality_tree(self):
        sess = session(tree_reduce_threshold=1 << 20)
        pdf = pd.DataFrame({"k": np.arange(5000) % 3, "v": np.random.rand(5000)})
        df = xpd.from_pandas(pdf, sess)
        res = df.groupby("k").agg({"v": "sum"}).to_pandas()
        assert list(sess.stats.reduce_choices.values()) == ["tree"]
        exp = pdf.groupby("k").agg({"v": "sum"})
        pd.testing.assert_frame_equal(res.sort_index(), exp, check_dtype=False)

    def test_high_cardinality_shuffle(self):
        sess = session(tree_reduce_threshold=2_000, chunk_limit=20_000)
        pdf = pd.DataFrame({"k": np.arange(8000), "v": np.random.rand(8000)})
        df = xpd.from_pandas(pdf, sess)
        res = df.groupby("k").agg({"v": "sum"}).to_pandas()
        assert list(sess.stats.reduce_choices.values()) == ["shuffle"]
        assert len(res) == 8000

    def test_same_key_groupbys_keep_two_records(self):
        sess = session()
        pdf = pd.DataFrame({"k": np.arange(5000) % 5, "v": np.random.rand(5000)})
        df = xpd.from_pandas(pdf, sess)
        sums = df.groupby("k").agg({"v": "sum"}).to_pandas()
        means = df.groupby("k").agg({"v": "mean"}).to_pandas()
        assert len(sums) == len(means) == 5
        assert list(sess.stats.reduce_choices.values()) == ["tree"] * 2

    def test_probe_executions_counted(self):
        sess = session()
        pdf = pd.DataFrame({"k": np.arange(5000) % 5, "v": np.random.rand(5000)})
        xpd.from_pandas(pdf, sess).groupby("k").agg({"v": "mean"}).to_pandas()
        assert sess.stats.probe_executions > 0
        assert sess.stats.yields > 0


class TestMergeSelection:
    def test_tiny_side_broadcast(self):
        sess = session(broadcast_threshold=50_000)
        big = pd.DataFrame({"k": np.arange(5000) % 50, "v": np.random.rand(5000)})
        small = pd.DataFrame({"k": np.arange(50), "w": np.random.rand(50)})
        out = (
            xpd.from_pandas(big, sess)
            .merge(xpd.from_pandas(small, sess), on="k")
            .to_pandas()
        )
        assert list(sess.stats.merge_choices.values()) == ["broadcast"]
        assert len(out) == 5000

    def test_two_big_sides_shuffle(self):
        sess = session(broadcast_threshold=1_000, chunk_limit=10_000)
        a = pd.DataFrame({"k": np.arange(4000) % 1000, "v": np.random.rand(4000)})
        b = pd.DataFrame({"k": np.arange(4000) % 1000, "w": np.random.rand(4000)})
        out = (
            xpd.from_pandas(a, sess)
            .merge(xpd.from_pandas(b, sess), on="k")
            .to_pandas()
        )
        choice = list(sess.stats.merge_choices.values())[0]
        assert choice in ("shuffle", "skew")
        exp = a.merge(b, on="k")
        assert len(out) == len(exp)

    def test_skew_detected_and_correct(self):
        sess = session(broadcast_threshold=100, chunk_limit=8_000,
                       skew_key_limit=4_000)
        left = skewed(6000)
        right = pd.DataFrame({"k": np.arange(500), "w": np.random.rand(500)})
        # force the shuffle path (right exceeds broadcast threshold)
        out = (
            xpd.from_pandas(left, sess)
            .merge(xpd.from_pandas(right, sess), on="k")
            .to_pandas()
        )
        assert list(sess.stats.merge_choices.values()) == ["skew"]
        exp = left.merge(right, on="k")
        assert len(out) == len(exp)
        assert abs(out["v"].sum() - exp["v"].sum()) < 1e-6

    def test_left_join_with_skew(self):
        sess = session(broadcast_threshold=100, chunk_limit=8_000,
                       skew_key_limit=4_000)
        left = skewed(6000)
        right = pd.DataFrame({"k": np.arange(0, 300), "w": np.random.rand(300)})
        out = (
            xpd.from_pandas(left, sess)
            .merge(xpd.from_pandas(right, sess), on="k", how="left")
            .to_pandas()
        )
        exp = left.merge(right, on="k", how="left")
        assert len(out) == len(exp)
        assert out["w"].isna().sum() == exp["w"].isna().sum()

    def test_same_key_merges_keep_two_records(self):
        """Decision records are per op instance: two merges on the same
        keys in one query leave two choices, not the last one."""
        sess = session(broadcast_threshold=50_000)
        big = pd.DataFrame({"k": np.arange(5000) % 50, "v": np.random.rand(5000)})
        a = pd.DataFrame({"k": np.arange(50), "w": np.random.rand(50)})
        b = pd.DataFrame({"k": np.arange(50), "x": np.random.rand(50)})
        out = (
            xpd.from_pandas(big, sess)
            .merge(xpd.from_pandas(a, sess), on="k")
            .merge(xpd.from_pandas(b, sess), on="k")
            .to_pandas()
        )
        assert len(out) == 5000
        assert list(sess.stats.merge_choices.values()) == ["broadcast"] * 2

    def test_source_hints_are_not_observations(self, monkeypatch):
        """``from_pandas`` chunks know their exact size at tile time, but
        only as a hint: the merge still probes them, so hot-key detection
        sees their payloads."""
        from repro.core.operators import dataframe as ops

        sess = session(broadcast_threshold=100, chunk_limit=8_000,
                       skew_key_limit=4_000)
        lf = xpd.from_pandas(skewed(6000), sess)
        rf = xpd.from_pandas(pd.DataFrame({"k": np.arange(500),
                                           "w": np.random.rand(500)}), sess)
        seen = []
        detect = ops._detect_hot_keys

        def recording_detect(ctx, left, right, lkeys, rkeys):
            seen.extend(ctx.probe_payload(c.key) is not None
                        for c in left + right if c.meta.observed)
            return detect(ctx, left, right, lkeys, rkeys)

        monkeypatch.setattr(ops, "_detect_hot_keys", recording_detect)
        out = lf.merge(rf, on="k")
        out.execute()
        k = ops.PROBE_CHUNKS
        sources = lf._t.chunks + rf._t.chunks
        assert all(c.meta.nbytes for c in sources)
        assert [c.meta.observed for c in lf._t.chunks] == (
            [True] * k + [False] * (len(lf._t.chunks) - k))
        assert seen and all(seen)
        assert list(sess.stats.merge_choices.values()) == ["skew"]

    def test_static_merge_correct_but_unprotected(self):
        sess = session(dynamic_tiling=False, chunk_limit=8_000)
        left = skewed(4000)
        right = pd.DataFrame({"k": np.arange(500), "w": np.random.rand(500)})
        out = (
            xpd.from_pandas(left, sess)
            .merge(xpd.from_pandas(right, sess), on="k")
            .to_pandas()
        )
        exp = left.merge(right, on="k")
        assert len(out) == len(exp)
        assert sess.stats.merge_choices == {}  # no dynamic decision made
