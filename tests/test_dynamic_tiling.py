"""Dynamic tiling (paper § IV): yield-based probes, iterative tiling
(the 4-8-5 iloc example), auto reduce selection, and merge strategy
selection (broadcast / shuffle / skew)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.core.graph import build_dag
from repro.core.operators.base import DataChunk
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession


def session(**kw):
    defaults = dict(chunk_limit=20_000, n_workers=2, bands_per_worker=2)
    defaults.update(kw)
    return XSession(EngineConfig(**defaults))


def decisions(*frames):
    """The decisions recorded on the frames' tileable graphs, in tiling
    order."""
    dag = build_dag([f._t for f in frames])
    return [t.decision for t in dag.topological_order() if t.decision]


def graph_sources(t, column):
    """The source chunks with ``column`` in the chunk graph of the run
    target ``t``'s chunks, in index order."""
    return sorted((c for c in build_dag(t.chunks).nodes()
                   if isinstance(c.op, DataChunk) and column in c.op.data),
                  key=lambda c: c.index)


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

        # 3 source chunks of 10 rows; rows < 1 survive the filter:
        # 4, 8, and 5 survivors respectively (values encode position)
        pdf = pd.concat([
            pd.DataFrame({"col": [0.1, 0.2, 0.3, 0.4] + [2.0] * 6}),
            pd.DataFrame({"col": [0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]
                          + [2.0] * 2}),
            pd.DataFrame({"col": [0.11, 0.12, 0.13, 0.14, 0.15] + [2.0] * 5}),
        ]).reset_index(drop=True)
        sess = session(chunk_limit=payload_nbytes(pdf) // 3 + 1)  # → 3 chunks
        probes = []
        execute = sess.executor.execute

        def recording_execute(chunks, *args):
            probes.append(list(chunks))
            return execute(chunks, *args)

        sess.executor.execute = recording_execute
        df = xpd.from_pandas(pdf, sess)
        filtered = df[df["col"] < 1]
        assert len(filtered._t.chunks or []) == 0 or True
        row = filtered.iloc[9]  # the tenth filtered row (0-indexed 9)
        expected = pdf[pdf["col"] < 1].iloc[9]
        assert row["col"] == expected["col"] == 0.85
        # the filter chunks, which the first probe ran, really were 4, 8, 5 long
        assert all(c.op is filtered._t.op for c in probes[0])
        lengths = [c.meta.shape[0] for c in probes[0]]
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
        agg = xpd.from_pandas(pdf, sess).groupby("k").agg({"v": "sum"})
        res = agg.to_pandas()
        assert decisions(agg) == ["tree"]
        exp = pdf.groupby("k").agg({"v": "sum"})
        pd.testing.assert_frame_equal(res.sort_index(), exp, check_dtype=False)

    def test_high_cardinality_shuffle(self):
        sess = session(tree_reduce_threshold=2_000, chunk_limit=20_000)
        pdf = pd.DataFrame({"k": np.arange(8000), "v": np.random.rand(8000)})
        agg = xpd.from_pandas(pdf, sess).groupby("k").agg({"v": "sum"})
        res = agg.to_pandas()
        assert decisions(agg) == ["shuffle"]
        assert len(res) == 8000

    def test_same_key_groupbys_keep_two_records(self):
        sess = session()
        pdf = pd.DataFrame({"k": np.arange(5000) % 5, "v": np.random.rand(5000)})
        df = xpd.from_pandas(pdf, sess)
        sums = df.groupby("k").agg({"v": "sum"})
        means = df.groupby("k").agg({"v": "mean"})
        assert len(sums.to_pandas()) == len(means.to_pandas()) == 5
        assert decisions(sums, means) == ["tree"] * 2

    def test_probe_executions_counted(self):
        sess = session()
        pdf = pd.DataFrame({"k": np.arange(5000) % 5, "v": np.random.rand(5000)})
        src = xpd.from_pandas(pdf, sess)
        agg = src.groupby("k").agg({"v": "mean"})
        agg.to_pandas()
        assert sess.stats.yields > 0
        assert graph_sources(agg._t, "v")[0].meta.observed  # the probe ran


class TestMergeSelection:
    def test_tiny_side_broadcast(self):
        sess = session(broadcast_threshold=50_000)
        big = pd.DataFrame({"k": np.arange(5000) % 50, "v": np.random.rand(5000)})
        small = pd.DataFrame({"k": np.arange(50), "w": np.random.rand(50)})
        out = xpd.from_pandas(big, sess).merge(xpd.from_pandas(small, sess), on="k")
        assert len(out.to_pandas()) == 5000
        assert decisions(out) == ["broadcast"]

    def test_two_big_sides_shuffle(self):
        sess = session(broadcast_threshold=1_000, chunk_limit=10_000)
        a = pd.DataFrame({"k": np.arange(4000) % 1000, "v": np.random.rand(4000)})
        b = pd.DataFrame({"k": np.arange(4000) % 1000, "w": np.random.rand(4000)})
        out = xpd.from_pandas(a, sess).merge(xpd.from_pandas(b, sess), on="k")
        got = out.to_pandas()
        assert out._t.decision in ("shuffle", "skew")
        exp = a.merge(b, on="k")
        assert len(got) == len(exp)

    def test_skew_detected_and_correct(self):
        sess = session(broadcast_threshold=100, chunk_limit=4_000)
        left = skewed(6000)
        right = pd.DataFrame({"k": np.arange(500), "w": np.random.rand(500)})
        # force the shuffle path (right exceeds broadcast threshold)
        merged = xpd.from_pandas(left, sess).merge(xpd.from_pandas(right, sess), on="k")
        out = merged.to_pandas()
        assert decisions(merged) == ["skew"]
        exp = left.merge(right, on="k")
        assert len(out) == len(exp)
        assert abs(out["v"].sum() - exp["v"].sum()) < 1e-6

    def test_left_join_with_skew(self):
        sess = session(broadcast_threshold=100, chunk_limit=4_000)
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
        )
        assert len(out.to_pandas()) == 5000
        assert decisions(out) == ["broadcast"] * 2

    def test_source_hints_are_not_observations(self, monkeypatch):
        """``from_pandas`` chunks know their shape and size at tile time,
        but only as hints, which size estimates ignore: the merge still
        probes them, so hot-key detection sees their payloads."""
        from repro.core.chunk import estimate_nbytes
        from repro.core.operators import dataframe as ops

        sess = session(broadcast_threshold=100, chunk_limit=4_000)
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
        lf_chunks = graph_sources(out._t, "v")
        sources = lf_chunks + graph_sources(out._t, "w")
        assert all(c.meta.shape for c in sources)
        assert [c.meta.observed for c in lf_chunks] == (
            [True] * k + [False] * (len(lf_chunks) - k))
        hinted = [c for c in sources if not c.meta.observed]
        assert hinted and all(c.meta.nbytes > 0 for c in hinted)
        assert estimate_nbytes(hinted) is None
        assert seen and all(seen)
        assert decisions(out) == ["skew"]

    def test_no_source_chunk_reaches_auto_merge(self, monkeypatch):
        """Auto merge packs chunks by ``meta.nbytes``, hints included, so
        a source's size hint must never reach it: every tree it builds
        starts from map nodes."""
        from repro.core import automerge
        from repro.frontend import tensor as xnp

        levels = []
        plan = automerge.plan_merge_groups

        def recording_plan(ctx, chunks, max_group):
            levels.append([not c.inputs for c in chunks])
            return plan(ctx, chunks, max_group)

        monkeypatch.setattr(automerge, "plan_merge_groups", recording_plan)
        sess = session(chunk_limit=4_000)
        pdf = skewed(3000)
        df = xpd.from_pandas(pdf, sess)
        assert len(df.groupby("k").agg({"v": "sum"}).to_pandas()) == pdf["k"].nunique()
        assert len(df.drop_duplicates().to_pandas()) == len(pdf.drop_duplicates())
        arr = np.arange(4000.0)
        assert xnp.array(arr, sess).sum() == arr.sum()
        assert levels and not any(any(level) for level in levels)

    def test_static_merge_correct_but_unprotected(self):
        sess = session(dynamic_tiling=False, chunk_limit=8_000)
        left = skewed(4000)
        right = pd.DataFrame({"k": np.arange(500), "w": np.random.rand(500)})
        merged = xpd.from_pandas(left, sess).merge(xpd.from_pandas(right, sess), on="k")
        out = merged.to_pandas()
        exp = left.merge(right, on="k")
        assert len(out) == len(exp)
        assert decisions(merged) == []  # no dynamic decision made


class TestDecisionLifetime:
    def test_repeated_query_leaves_tiler_state_flat(self):
        """A decision lives on its query's tileable: running the same
        merge+groupby 20 times in one session grows no state on the
        tiler, and each query's graph is freed with its handle."""
        import weakref

        def entries(obj, depth=0):
            """Container entries an object holds, down through plain
            objects (the executor it drives is not tiler state)."""
            n = 0
            for name, v in vars(obj).items():
                if name in ("executor", "cfg"):
                    continue
                if isinstance(v, (dict, list, set, tuple)):
                    n += len(v)
                elif hasattr(v, "__dict__") and depth < 2:
                    n += entries(v, depth + 1)
            return n

        sess = session(broadcast_threshold=50_000)
        g = np.random.default_rng(0)
        big = xpd.from_pandas(pd.DataFrame({"k": g.integers(0, 50, 5000),
                                            "v": g.random(5000)}), sess)
        small = xpd.from_pandas(pd.DataFrame({"k": np.arange(50),
                                              "g": np.arange(50) % 7}), sess)
        sizes, graphs = [], []
        for _ in range(20):
            out = big.merge(small, on="k").groupby("g").agg({"v": "sum"})
            assert len(out.to_pandas()) == 7
            graphs.append(weakref.ref(out._t))
            del out
            sizes.append(entries(sess.tiler))
        assert sizes == [sizes[0]] * 20
        assert all(ref() is None for ref in graphs)
        sess.close()


def _record_runs(sess, monkeypatch):
    """Per ``sess.run`` call, the ``(chunk keys run, keys stored)`` of
    each subtask, in the order the subtasks ran."""
    runs = []
    run, run_wave = sess.run, sess.executor._run_wave

    def recording_run(*tileables):
        runs.append([])
        return run(*tileables)

    def recording_wave(subs, nodes):
        run_wave(subs, nodes)
        runs[-1].extend(([c.key for c in s.chunks], list(s.store_keys))
                        for s in subs)

    monkeypatch.setattr(sess, "run", recording_run)
    monkeypatch.setattr(sess.executor, "_run_wave", recording_wave)
    return runs


class TestProbeHolds:
    """What a probe stored stays stored until the query's final run, so a
    query runs no stored chunk twice; and the holds go with the query."""

    def test_no_stored_chunk_runs_twice(self, monkeypatch):
        from repro.engines import XorbitsEngine
        from repro.synth_data import tpch_tables_pdf
        from repro.workloads.tpch import QUERIES

        sess = XSession(XorbitsEngine(chunk_limit=400_000).config())
        frames = {n: xpd.from_pandas(p, sess) for n, p in tpch_tables_pdf(0.01).items()}
        runs = _record_runs(sess, monkeypatch)
        for q in sorted(QUERIES):
            out = QUERIES[q].fn(frames)
            if hasattr(out, "execute"):
                out.execute()
        assert len(runs) >= 22
        reruns = 0
        for subtasks in runs:
            ran, stored, again = set(), set(), set()
            for keys, st in subtasks:
                assert not stored & set(keys), "a stored chunk ran again"
                again.update(k for k in keys if k in ran)
                reruns += sum(k in ran for k in keys)
                ran.update(keys)
                stored.update(st)
            # what does run twice is a fused interior, stored nowhere
            assert not stored & again
        # without the probe holds this pass re-ran 310 chunk kernels, 58
        # of them stored earlier in the same run; the fused interiors
        # that remain are 23 (q21 18, q17 4, q07 1)
        assert reruns <= 30
        sess.close()

    JOIN_CFG = dict(chunk_limit=20_000, broadcast_threshold=200_000, n_workers=2)

    @staticmethod
    def _frames():
        g = np.random.default_rng(1)
        return (pd.DataFrame({"k": g.integers(0, 6000, 20_000), "v": g.random(20_000)}),
                pd.DataFrame({"k": np.arange(6000), "w": g.random(6000)}))

    @staticmethod
    def _query(sess):
        """A broadcast merge of two filtered sides, then a range sort: the
        sort's probe stores the small-side chunks that the merge's probe
        did not run."""
        big, small = TestProbeHolds._frames()
        big, small = xpd.from_pandas(big, sess), xpd.from_pandas(small, sess)
        return (big[big["v"] > 0.1].merge(small[small["w"] > 0.05], on="k")
                .sort_values("v"))

    @staticmethod
    def _kept(sess, monkeypatch):
        """Each probe's targets and the keys its ``execute`` kept."""
        probes = []
        execute = sess.executor.execute

        def recording_execute(chunks, release=(), keep=None):
            n = len(keep or ())
            try:
                execute(chunks, release, keep)
            finally:
                if keep is not None:
                    probes.append(({c.key for c in chunks}, keep[n:]))

        monkeypatch.setattr(sess.executor, "execute", recording_execute)
        return probes

    @staticmethod
    def _assert_empty(sess):
        assert sess.executor.refs == {}
        assert sess.storage.keys() == [] and sess.executor.buckets == {}
        assert all(u.resident == 0 and u.transient == 0
                   for u in sess.storage.bands.values())

    @staticmethod
    def _assert_held_more_than_targets(probes):
        assert any(set(kept) - targets for targets, kept in probes)

    def test_holds_freed_with_the_handle(self, monkeypatch):
        import gc

        sess = session(**self.JOIN_CFG)
        probes = self._kept(sess, monkeypatch)
        out = self._query(sess)
        got = out.to_pandas()
        self._assert_held_more_than_targets(probes)
        assert "broadcast" in decisions(out)
        assert set(sess.executor.refs) == {c.key for c in out._t.chunks}
        del out
        gc.collect()
        self._assert_empty(sess)
        big, small = self._frames()
        want = (big[big["v"] > 0.1].merge(small[small["w"] > 0.05], on="k")
                .sort_values("v", kind="mergesort"))
        pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                      want.reset_index(drop=True))
        sess.close()

    def test_holds_dropped_when_tiling_raises(self, monkeypatch):
        from repro.core.operators.dataframe import SortValues

        sess = session(**self.JOIN_CFG)
        probes = self._kept(sess, monkeypatch)

        def failing_bounds(*args):
            raise RuntimeError("tiling failed")

        monkeypatch.setattr(SortValues, "_sample_bounds", failing_bounds)
        out = self._query(sess)
        with pytest.raises(RuntimeError, match="tiling failed"):
            out.execute()
        self._assert_held_more_than_targets(probes)
        del out
        self._assert_empty(sess)
        sess.close()

    def test_holds_dropped_on_oom_in_final_execute(self, monkeypatch):
        from repro.storage.service import SimulatedOOM

        sess = session(**self.JOIN_CFG, allow_spill=False)
        probes = self._kept(sess, monkeypatch)
        tile = sess.tiler.tile

        def tile_then_shrink(targets):
            holds = tile(targets)
            # the final execute cannot store or run anything more
            sess.storage.band_memory_limit = 1
            return holds

        monkeypatch.setattr(sess.tiler, "tile", tile_then_shrink)
        out = self._query(sess)
        with pytest.raises(SimulatedOOM):
            out.execute()
        self._assert_held_more_than_targets(probes)
        del out
        self._assert_empty(sess)
        sess.close()
