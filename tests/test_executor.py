"""Executor orchestration: fusion → scheduling → waves → store/free,
memory metering, hang model, and ablation equivalence."""
import json
import os
import pickle
import subprocess
import sys
from collections import Counter

import cloudpickle
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import Block, ChunkMeta, ChunkNode
from repro.core.config import EngineConfig
from repro.core.executor import LocalExecutor, SimulatedHang, run_subtask
from repro.core.operators.base import Elementwise, Operator
from repro.core.operators.dataframe import PROBE_CHUNKS, DataChunk
from repro.storage.service import SimulatedOOM, StorageService


def make_executor(**cfg_kw):
    cfg = EngineConfig(**cfg_kw)
    storage = StorageService(band_memory_limit=cfg.band_memory_limit)
    return LocalExecutor(cfg, storage)


def source_chunk(df):
    return ChunkNode(op=DataChunk(df), inputs=[], meta=ChunkMeta(shape=df.shape))


def ew(fn, *inputs):
    return ChunkNode(op=Elementwise(fn), inputs=list(inputs))


def frame(n=100, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame({"a": g.integers(0, 10, n), "b": g.random(n)})


class TestExecution:
    def test_simple_chain(self):
        ex = make_executor()
        df = frame()
        src = source_chunk(df)
        out = ew(lambda d: d.assign(c=d["a"] + 1), src)
        ex.execute([out])
        res = ex.storage.get(out.key)
        assert list(res["c"]) == list(df["a"] + 1)

    def test_metadata_recorded(self):
        ex = make_executor()
        src = source_chunk(frame(50))
        out = ew(lambda d: d[d["a"] > 5], src)
        ex.execute([out])
        meta = out.meta
        assert meta.observed and meta.shape is not None
        assert meta.shape[0] <= 50

    def test_fused_chain_records_meta_on_tail(self):
        """Operator fusion runs the chain as one node under the tail's
        key; the observed metadata lands on the tail node itself."""
        ex = make_executor()
        src = source_chunk(frame(50))
        mid = ew(lambda d: d.assign(c=d["a"] * 2), src)
        tail = ew(lambda d: d[d["c"] > 6], mid)
        hint = tail.meta
        ex.execute([tail])
        assert tail.meta is not hint and tail.meta.observed
        assert tail.meta.shape == ex.storage.get(tail.key).shape
        # the chain really was fused: its middle was never stored
        assert not ex.storage.has(mid.key) and not mid.meta.observed

    def test_idempotent_execution(self):
        ex = make_executor()
        src = source_chunk(frame())
        out = ew(lambda d: d, src)
        ex.execute([out])
        n = ex.tasks_executed
        ex.execute([out])  # already stored: no new tasks
        assert ex.tasks_executed == n

    def test_diamond_graph(self):
        ex = make_executor()
        src = source_chunk(frame())
        left = ew(lambda d: d[["a"]], src)
        right = ew(lambda d: d[["b"]], src)
        join = ChunkNode(
            op=Elementwise(lambda l, r: pd.concat([l, r], axis=1)),
            inputs=[left, right],
        )
        ex.execute([join])
        assert sorted(ex.storage.get(join.key).columns) == ["a", "b"]

    def test_intermediates_freed_targets_kept(self):
        ex = make_executor()
        src = source_chunk(frame())
        mid = ChunkNode(op=_NonFusable(), inputs=[src])
        out = ChunkNode(op=_NonFusable(), inputs=[mid])
        ex.execute([out])
        assert ex.storage.has(out.key)
        assert not ex.storage.has(mid.key)  # refcount freed

    def test_eager_engines_retain_intermediates(self):
        ex = make_executor(free_intermediates=False)
        src = source_chunk(frame())
        mid = ChunkNode(op=_NonFusable(), inputs=[src])
        out = ChunkNode(op=_NonFusable(), inputs=[mid])
        ex.execute([out])
        assert ex.storage.has(mid.key)  # Modin-style eager retention


class _NonFusable(Operator):
    no_fuse_in = True

    def execute_chunk(self, inputs):
        return inputs[0]


class TestMemoryModel:
    def test_transient_oom(self):
        ex = make_executor(band_memory_limit=1000)
        src = source_chunk(frame(5000))  # far above 1000 bytes
        out = ew(lambda d: d, src)
        with pytest.raises(SimulatedOOM):
            ex.execute([out])

    def test_fits_in_budget(self):
        ex = make_executor(band_memory_limit=10 << 20)
        src = source_chunk(frame(1000))
        out = ew(lambda d: d, src)
        ex.execute([out])  # no raise

    def test_oom_query_leaves_band_free(self):
        """A subtask whose working set OOMs never ran, so its charge is
        rolled back and a tiny query in the same session still fits."""
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        sess = XSession(EngineConfig(band_memory_limit=4 << 20, bands_per_worker=1))
        big = xpd.from_pandas(frame(400_000), sess)  # one ~6 MiB chunk
        with pytest.raises(SimulatedOOM, match="transient working set"):
            big[big["a"] > 2].to_pandas()
        small = xpd.from_pandas(frame(3), sess)
        assert len(small[small["a"] >= 0].to_pandas()) == 3
        assert sess.storage.bands["w0-n0"].transient == 0
        sess.close()

    def test_hang_model(self):
        ex = make_executor(max_tasks=3)
        srcs = [source_chunk(frame(10, seed=i)) for i in range(10)]
        outs = [ChunkNode(op=_NonFusable(), inputs=[s]) for s in srcs]
        with pytest.raises(SimulatedHang):
            ex.execute(outs)


class TestAblationEquivalence:
    """Fusion toggles change the schedule, never the answer."""

    def _result(self, **cfg_kw):
        ex = make_executor(**cfg_kw)
        df = frame(200, seed=3)
        src = source_chunk(df)
        a = ew(lambda d: d.assign(c=d["a"] * 2), src)
        b = ew(lambda d: d[d["c"] > 4], a)
        out = ew(lambda d: d.assign(s=d["b"] + d["c"]), b)
        ex.execute([out])
        return ex, ex.storage.get(out.key)

    def test_fusion_off_same_result(self):
        _, fused = self._result(graph_fusion=True, operator_fusion=True)
        _, plain = self._result(graph_fusion=False, operator_fusion=False)
        pd.testing.assert_frame_equal(fused, plain)

    def test_graph_fusion_reduces_tasks(self):
        ex_on, _ = self._result(graph_fusion=True)
        ex_off, _ = self._result(graph_fusion=False)
        assert ex_on.tasks_executed < ex_off.tasks_executed

    def test_operator_fusion_only(self):
        _, a = self._result(graph_fusion=True, operator_fusion=True)
        _, b = self._result(graph_fusion=True, operator_fusion=False)
        pd.testing.assert_frame_equal(a, b)


def _assert_same_payload(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_same_payload(a[k], b[k])
    elif isinstance(a, pd.DataFrame):
        pd.testing.assert_frame_equal(a, b)
    elif isinstance(a, Block):
        pd.testing.assert_frame_equal(a.frame(), b.frame())
    elif isinstance(a, pd.Series):
        pd.testing.assert_series_equal(a, b)
    else:
        np.testing.assert_array_equal(a, b)


def _record_waves(ex):
    """Record every wave ``ex`` runs as ``[(subtask, inputs, input_sizes), ...]``."""
    waves = []
    run_wave = ex._run_wave

    def recording_run_wave(specs, nodes):
        waves.append([(s, *ex._gather(s)) for s in specs])
        run_wave(specs, nodes)

    ex._run_wave = recording_run_wave
    return waves


class TestSubtaskPickles:
    """A subtask pickles to its members' ops and keys, not to the chunk
    and tileable graph upstream of it."""

    @staticmethod
    def _query_waves(n_rows):
        """Run filter → merge → groupby over a ``from_pandas`` source;
        return every wave as ``[(subtask, inputs, input_sizes), ...]``."""
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        g = np.random.default_rng(0)
        left = pd.DataFrame({"k": g.integers(0, 50, n_rows), "v": g.random(n_rows)})
        right = pd.DataFrame({"k": np.arange(50), "w": np.arange(50.0)})
        # broadcast_threshold=0 forces the shuffle merge (reducer subtasks)
        sess = XSession(EngineConfig(chunk_limit=16_000, broadcast_threshold=0))
        waves = _record_waves(sess.executor)
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        got = lf[lf["v"] < 0.8].merge(rf, on="k").groupby("k").agg({"w": "sum"})
        got = got.to_pandas()
        exp = left[left["v"] < 0.8].merge(right, on="k").groupby("k").agg({"w": "sum"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)
        sess.close()
        return waves

    @staticmethod
    def _reducer_spec_bytes(waves):
        out = []
        for wave in waves:
            for spec, _inputs, _sizes in wave:
                if spec.reducer is not None and not any(
                    isinstance(c.op, DataChunk) for c in spec.chunks
                ):
                    out.append(len(cloudpickle.dumps(spec)))
        assert out, "query planned no shuffle reducers"
        return out

    def test_reducer_spec_does_not_grow_with_source_rows(self):
        small = self._reducer_spec_bytes(self._query_waves(2_000))
        big = self._reducer_spec_bytes(self._query_waves(8_000))
        # 4x the rows (and source chunks): a reducer spec gains only the
        # keys of its extra mapper inputs, never upstream frames
        assert max(big) <= 8 * 1024
        assert max(big) <= max(small) + 1024

    def test_unpickled_spec_gives_same_payloads(self):
        waves = self._query_waves(2_000)
        assert any(len(w) > 1 for w in waves)
        for wave in waves:
            for spec, inputs, sizes in wave:
                shipped = pickle.loads(cloudpickle.dumps(spec))
                want, want_sizes, want_peak = run_subtask(spec, inputs, sizes)
                got, got_sizes, got_peak = run_subtask(shipped, inputs, sizes)
                assert got.keys() == want.keys()
                for k in want:
                    _assert_same_payload(got[k], want[k])
                assert (got_sizes, got_peak) == (want_sizes, want_peak)


def _join_frames(n=4000):
    g = np.random.default_rng(0)
    left = pd.DataFrame({"k": g.integers(0, 50, n), "v": g.random(n)})
    right = pd.DataFrame({"k": np.arange(50), "w": np.arange(50.0)})
    return left, right


def _shuffle_merge_waves(cfg):
    """Run a shuffle merge; return its recorded waves and the session."""
    from repro.frontend import dataframe as xpd
    from repro.frontend.session import XSession

    left, right = _join_frames()
    sess = XSession(cfg)
    waves = _record_waves(sess.executor)
    lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
    got = lf.merge(rf, on="k").to_pandas()
    assert len(got) == len(left.merge(right, on="k"))
    return waves, sess


STATIC_SHUFFLE_8 = dict(chunk_limit=16_000, dynamic_tiling=False,
                        static_shuffle_partitions=8)


class TestMeasureOnce:
    """Each payload is sized once, where it is produced, and the meter
    reads stored sizes from then on."""

    def test_each_bucket_measured_once(self, monkeypatch):
        from repro.core import chunk, executor
        from repro.storage import service

        measured, stored = [], []
        monkeypatch.setattr(executor, "payload_nbytes",
                            lambda p: measured.append(p) or chunk.payload_nbytes(p))
        monkeypatch.setattr(service, "payload_nbytes",
                            lambda p: pytest.fail("storage re-measured a payload"))
        put = StorageService.put

        def recording_put(self, key, payload, *args, **kwargs):
            if "::b" in key:
                stored.append(payload)
            return put(self, key, payload, *args, **kwargs)

        monkeypatch.setattr(StorageService, "put", recording_put)
        _waves, sess = _shuffle_merge_waves(EngineConfig(**STATIC_SHUFFLE_8))
        sess.close()
        # `measured` keeps every payload alive, so ids are never reused
        times = Counter(map(id, measured))
        assert len(stored) >= 8
        assert all(times[id(b)] == 1 for b in stored)

    def test_reducer_peak_is_buckets_plus_output(self):
        from repro.core.chunk import payload_nbytes

        waves, sess = _shuffle_merge_waves(EngineConfig(**STATIC_SHUFFLE_8))
        sess.close()
        reducers = [
            (spec, inputs, sizes) for wave in waves
            for spec, inputs, sizes in wave if spec.reducer is not None
        ]
        assert len(reducers) == 8
        for spec, inputs, sizes in reducers:
            buckets = sum(payload_nbytes(b) for b in inputs.values())
            assert sum(sizes.values()) == buckets
            outputs, out_sizes, peak = run_subtask(spec, inputs, sizes)
            out_bytes = sum(payload_nbytes(o) for o in outputs.values())
            assert sum(out_sizes.values()) == out_bytes
            assert peak == buckets + out_bytes


STATIC_SHUFFLE_64 = dict(chunk_limit=2_000, dynamic_tiling=False,
                         static_reduce="shuffle", static_shuffle_partitions=64)


def _sparse_shuffle_query(sess):
    """A 64-way static shuffle merge + groupby over a few dozen keys, so
    most buckets are empty and some reducers get rows from one side only.
    Returns the engine's result and pandas'."""
    from repro.frontend import dataframe as xpd

    g = np.random.default_rng(7)
    left = pd.DataFrame({"k": g.integers(0, 40, 300), "v": g.random(300),
                         "tag": [f"t{i % 5}" for i in range(300)]})
    right = pd.DataFrame({"k": np.arange(20, 60), "w": np.arange(40, dtype="int32"),
                          "name": [f"n{i}" for i in range(40)]})
    lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
    agg = dict(v=("v", "sum"), w=("w", "max"), name=("name", "min"))
    got = lf.merge(rf, on="k").groupby("tag").agg(**agg).to_pandas()
    exp = left.merge(right, on="k").groupby("tag").agg(**agg)
    return got.sort_index(), exp


class TestSparseShuffle:
    """A mapper stores only its non-empty buckets; a reducer gets the
    mapper's zero-row ``empty`` for every other bucket it reads."""

    def test_one_put_per_nonempty_bucket(self, monkeypatch):
        """The result equals pandas', and storage gets one put per
        non-empty bucket and none under a mapper's own key."""
        from repro.core.operators import dataframe
        from repro.frontend.session import XSession

        splits, puts = [], []
        hash_partition = dataframe.hash_partition

        def recording_hash_partition(pdf, on, n, total=None):
            splits.append((pdf, on, n))
            return hash_partition(pdf, on, n, total)

        put = StorageService.put

        def recording_put(self, key, payload, *args, **kwargs):
            puts.append((key, payload))
            return put(self, key, payload, *args, **kwargs)

        monkeypatch.setattr(dataframe, "hash_partition", recording_hash_partition)
        monkeypatch.setattr(StorageService, "put", recording_put)
        sess = XSession(EngineConfig(**STATIC_SHUFFLE_64))
        got, exp = _sparse_shuffle_query(sess)
        sess.close()
        pd.testing.assert_frame_equal(got, exp)

        per_split = [
            set((pd.util.hash_pandas_object(pdf[on[0]], index=False) % n).tolist())
            for pdf, on, n in splits
        ]
        # the merge's two sides leave different reducers without rows
        sides = {True: set(), False: set()}
        for (pdf, on, _n), used in zip(splits, per_split):
            if on == ["k"]:
                sides["v" in pdf.columns] |= used
        assert sides[True] ^ sides[False]
        buckets = [p for k, p in puts if "::b" in k]
        mappers = {k.split("::b")[0] for k, _p in puts if "::b" in k}
        assert len(mappers) == sum(1 for used in per_split if used) > 2
        assert not mappers & {k for k, _p in puts}
        assert len(buckets) == sum(map(len, per_split)) < 64 * len(splits) // 4
        assert all(len(b) for b in buckets)

    def test_reducers_read_only_their_buckets(self, monkeypatch):
        """Each stored bucket is read once, by the one reducer that needs
        it; nothing is read under a mapper's key."""
        from repro.core.chunk import Buckets
        from repro.frontend.session import XSession

        sess = XSession(EngineConfig(**STATIC_SHUFFLE_64))
        mappers, stored, reads = set(), [], Counter()
        store, get = sess.executor._store_outputs, StorageService.get

        def recording_store(spec, outputs, *args):
            store(spec, outputs, *args)
            for k, payload in outputs.items():
                if isinstance(payload, Buckets):
                    mappers.add(k)
                    stored.extend(sess.executor.buckets[k].values())

        def recording_get(storage, key):
            reads[key] += 1
            return get(storage, key)

        monkeypatch.setattr(sess.executor, "_store_outputs", recording_store)
        monkeypatch.setattr(StorageService, "get", recording_get)
        got, exp = _sparse_shuffle_query(sess)
        sess.close()
        pd.testing.assert_frame_equal(got, exp)
        assert len(mappers) > 2 and len(stored) > len(mappers)
        assert not mappers & set(reads)
        assert {k: reads[k] for k in stored} == dict.fromkeys(stored, 1)

    def test_spark_matches_local(self, spark):
        from repro.frontend.session import XSession

        sess = XSession(EngineConfig(**STATIC_SHUFFLE_64, n_workers=2), spark=spark)
        got, exp = _sparse_shuffle_query(sess)
        sess.close()
        pd.testing.assert_frame_equal(got, exp)


_CHARGES_SCRIPT = """
import json
from repro.engines import XorbitsEngine
from repro.storage.service import StorageService
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES

charges, spills = [], []
charge, close = StorageService.charge_transient, StorageService.close

def recording_charge(self, band, nbytes):
    charges.append((band, nbytes))
    return charge(self, band, nbytes)

def recording_close(self):
    spills.append(self.spill_count)
    return close(self)

StorageService.charge_transient = recording_charge
StorageService.close = recording_close
q = QUERIES["q21"]
eng = XorbitsEngine(band_budget=2 << 20, chunk_limit=1 << 20)
res = eng.run_query(q.fn, tpch_tables_pdf(0.02, q.tables), name="q21")
print(json.dumps([res.outcome.value, charges, spills]))
"""


def test_schedule_independent_of_hash_seed():
    """Waves, bands and spill victims follow graph order, never the
    iteration order of a set of string keys."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _CHARGES_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    assert runs[0][0] == "ok"
    assert sum(runs[0][2]) > 0  # the budget forces spills
    assert runs[0] == runs[1]


def _state(sess):
    """What a query must leave as it found it: the refcount table, the
    stored keys with their sizes, and every band's metered bytes (a band
    first used by the query shows up at zero)."""
    st = sess.storage
    return (
        dict(sess.executor.refs),
        {k: st.nbytes_of(k) for k in st.keys()},
        {b: (u.resident, u.transient) for b, u in st.bands.items()
         if u.resident or u.transient},
    )


class TestLifetimes:
    """One refcount table decides which chunks are stored and when they
    are freed: pending consumers, probe holds and live result handles."""

    JOIN_CFG = dict(chunk_limit=16_000, broadcast_threshold=0, n_workers=2)

    def test_tpch_session_keeps_only_live_handles(self):
        import gc

        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession
        from repro.synth_data import tpch_tables_pdf
        from repro.workloads.tpch import QUERIES

        sess = XSession(EngineConfig(chunk_limit=500_000, tree_reduce_threshold=250_000,
                                     broadcast_threshold=250_000, n_workers=2))
        frames = {n: xpd.from_pandas(p, sess) for n, p in tpch_tables_pdf(0.02).items()}
        kept, ran = {}, []
        for q in sorted(QUERIES):
            h = QUERIES[q].fn(frames)
            if hasattr(h, "execute"):  # a few queries end in pandas
                h.execute()
                ran.append(q)
                if q in ("q03", "q09", "q18"):
                    kept[q] = h
            del h
        assert len(ran) >= 18 and len(kept) == 3
        want = set()
        for h in kept.values():
            for c in h._t.chunks:
                want.add(c.key)
                want.update(sess.executor.buckets.get(c.key, {}).values())
        assert set(sess.storage.keys()) == want
        assert set(sess.executor.refs) == {c.key for h in kept.values() for c in h._t.chunks}
        assert sess.storage.spill_count == 0
        del h
        kept.clear()
        gc.collect()
        assert sess.storage.keys() == [] and sess.executor.refs == {}
        assert all(u.resident == 0 for u in sess.storage.bands.values())
        sess.close()

    def test_executed_handle_is_reused(self, monkeypatch):
        from repro.core import executor
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        ran = []
        run = executor.run_subtask

        def recording_run(spec, *args):
            ran.extend(c.key for c in spec.chunks)
            return run(spec, *args)

        monkeypatch.setattr(executor, "run_subtask", recording_run)
        left, right = _join_frames()
        sess = XSession(EngineConfig(**self.JOIN_CFG))
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        df = lf[lf["v"] < 0.5].merge(rf, on="k")
        df.execute()
        mine = {c.key for c in df._t.chunks}
        assert mine <= set(ran) and mine <= set(sess.storage.keys())
        ran.clear()
        got = df.groupby("k").agg({"w": "sum"}).to_pandas()
        assert ran and not mine & set(ran)
        exp = left[left["v"] < 0.5].merge(right, on="k").groupby("k").agg({"w": "sum"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)
        sess.close()

    def test_dropping_handles_frees_metadata(self):
        """Observed metadata lives on the chunk nodes, so it goes with the
        query's graph: no cycle collection needed, nothing session-wide."""
        import gc
        import weakref

        from repro.core.graph import build_dag
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        left, right = _join_frames()
        sess = XSession(EngineConfig(**self.JOIN_CFG))
        gc.collect()
        gc.disable()
        try:
            lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
            out = lf.merge(rf, on="k").groupby("k").agg({"w": "sum"})
            out.execute()
            metas = [c.meta for c in build_dag(out._t.chunks).nodes()
                     if c.meta.observed]
            assert len(metas) > len(out._t.chunks)
            alive = [weakref.ref(m) for m in metas]
            del lf, rf, out, metas
            assert [r for r in alive if r() is not None] == []
        finally:
            gc.enable()
        sess.close()

    def test_delete_reads_no_payload(self, monkeypatch):
        """Freeing a chunk, a shuffle mapper's buckets included, never
        reads (or reloads) a payload."""
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        left, right = _join_frames()
        sess = XSession(EngineConfig(**self.JOIN_CFG))
        deleting, reads, mappers = [], [], []
        delete, get = sess.executor._delete_chunk, StorageService.get

        def recording_delete(k):
            if k in sess.executor.buckets:
                mappers.append(k)
            deleting.append(k)
            try:
                delete(k)
            finally:
                deleting.pop()

        def recording_get(storage, key):
            if deleting:
                reads.append(key)
            return get(storage, key)

        monkeypatch.setattr(sess.executor, "_delete_chunk", recording_delete)
        monkeypatch.setattr(StorageService, "get", recording_get)
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        out = lf.merge(rf, on="k").groupby("k").agg({"w": "sum"})
        out.execute()
        del out
        assert mappers and reads == []
        assert sess.storage.keys() == [] and sess.executor.buckets == {}
        sess.close()

    def test_graph_on_executed_handle_does_not_reprobe(self, monkeypatch):
        from repro.core.graph import build_dag
        from repro.core.operators.base import DataChunk
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        left, right = _join_frames()
        sess = XSession(EngineConfig(**self.JOIN_CFG))
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        df = lf[lf["v"] < 0.5]
        df.execute()
        assert all(c.meta.observed for c in df._t.chunks)
        targets = []
        execute = sess.executor.execute

        def recording_execute(chunks, *args):
            targets.append({c.key for c in chunks})
            return execute(chunks, *args)

        monkeypatch.setattr(sess.executor, "execute", recording_execute)
        yields = sess.stats.yields
        merged = df.merge(rf, on="k")
        got = merged.to_pandas()
        # one probe, of the unexecuted side only; then the final graph
        k = PROBE_CHUNKS
        rf_chunks = sorted((c for c in build_dag(merged._t.chunks).nodes()
                            if isinstance(c.op, DataChunk) and "w" in c.op.data),
                           key=lambda c: c.index)
        assert sess.stats.yields == yields + 1
        assert targets[0] == {c.key for c in rf_chunks[:k]}
        assert not {c.key for c in df._t.chunks} & set().union(*targets)
        exp = left[left["v"] < 0.5].merge(right, on="k")
        assert len(got) == len(exp)
        sess.close()

    @staticmethod
    def _held_session(**cfg_kw):
        """A session holding one executed handle, and a query to fail."""
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        left, right = _join_frames()
        sess = XSession(EngineConfig(**cfg_kw))
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        held = rf[rf["w"] > 10.0]
        held.execute()
        query = lf.merge(rf, on="k").groupby("k").agg({"w": "sum"})
        return sess, held, query

    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.6, 1.0])
    def test_kernel_raise_restores_state(self, monkeypatch, frac):
        from repro.core import executor

        dry, _held, query = self._held_session(**self.JOIN_CFG)
        n_before = dry.executor.tasks_executed
        query.execute()  # a dry run counts the query's subtasks
        n = dry.executor.tasks_executed - n_before
        dry.close()
        sess, held, query = self._held_session(**self.JOIN_CFG)
        before = _state(sess)
        fail_at = min(int(frac * n), n - 1)
        calls = []
        run = executor.run_subtask

        def failing_run(*args):
            calls.append(1)
            if len(calls) > fail_at:
                raise RuntimeError("kernel failed")
            return run(*args)

        monkeypatch.setattr(executor, "run_subtask", failing_run)
        with pytest.raises(RuntimeError, match="kernel failed"):
            query.execute()
        assert len(calls) == fail_at + 1
        assert _state(sess) == before
        monkeypatch.setattr(executor, "run_subtask", run)
        assert len(query.to_pandas()) == 50  # the session still works
        del query
        assert _state(sess) == before
        sess.close()

    def test_mid_query_oom_restores_state(self):
        # no spill, so every stored chunk stays resident and the band
        # bytes before and after compare exactly
        sess, held, query = self._held_session(
            **self.JOIN_CFG, band_memory_limit=60_000, allow_spill=False)
        before = _state(sess)
        n = sess.executor.tasks_executed
        with pytest.raises(SimulatedOOM):
            query.execute()
        assert sess.executor.tasks_executed > n + 2  # it failed mid-query
        assert _state(sess) == before
        sess.close()

    def test_eager_policy_keeps_every_stored_chunk(self, monkeypatch):
        stored = []
        put = StorageService.put

        def recording_put(self, key, payload, *args, **kwargs):
            stored.append(key)
            return put(self, key, payload, *args, **kwargs)

        monkeypatch.setattr(StorageService, "put", recording_put)
        sess, held, query = self._held_session(**self.JOIN_CFG,
                                               free_intermediates=False)
        query.execute()
        del held, query
        assert len(stored) > 20
        assert set(sess.storage.keys()) == set(stored)
        assert sess.executor.refs == {}
        sess.close()
