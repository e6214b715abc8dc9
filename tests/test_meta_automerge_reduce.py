"""Meta service, auto merge grouping, and auto reduce selection."""
import pandas as pd
import pytest

from repro.core.automerge import plan_merge_groups
from repro.core.chunk import ChunkMeta, ChunkNode
from repro.core.config import EngineConfig
from repro.core.meta import MetaService
from repro.core.operators.base import Operator, TileContext
from repro.core.reduce_select import choose_reduce


class NopOp(Operator):
    def execute_chunk(self, inputs, chunk):
        return None


def chunk():
    return ChunkNode(op=NopOp(), inputs=[])


class TestMetaService:
    def test_put_get(self):
        m = MetaService()
        m.put("k", ChunkMeta(shape=(10, 2), nbytes=100))
        assert m.get("k").shape == (10, 2)
        assert m.has("k")
        assert not m.has("other")

    def test_update_chunk(self):
        m = MetaService()
        c = chunk()
        m.put(c.key, ChunkMeta(shape=(5,), nbytes=40))
        m.update_chunk(c)
        assert c.meta.shape == (5,)

    def test_total_nbytes(self):
        m = MetaService()
        cs = [chunk(), chunk()]
        m.put(cs[0].key, ChunkMeta(nbytes=10))
        assert m.total_nbytes(cs) is None  # second unknown
        m.put(cs[1].key, ChunkMeta(nbytes=5))
        assert m.total_nbytes(cs) == 15

    def test_known(self):
        m = MetaService()
        c = chunk()
        assert not m.known([c])
        m.put(c.key, ChunkMeta())
        assert m.known([c])

    def test_clear(self):
        m = MetaService()
        m.put("k", ChunkMeta())
        m.clear()
        assert not m.has("k")


def ctx_with(cfg=None, sizes=None):
    ctx = TileContext(cfg or EngineConfig(), MetaService())
    for key, nbytes in (sizes or {}).items():
        ctx.meta.put(key, ChunkMeta(nbytes=nbytes))
    return ctx


class TestAutoMerge:
    def test_groups_capped_by_factor(self):
        ctx = ctx_with(EngineConfig(chunk_limit=1 << 30))
        chunks = [chunk() for _ in range(10)]
        groups = plan_merge_groups(ctx, chunks, max_group=4)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_groups_capped_by_bytes(self):
        cfg = EngineConfig(chunk_limit=100)
        chunks = [chunk() for _ in range(4)]
        ctx = ctx_with(cfg, {c.key: 60 for c in chunks})
        groups = plan_merge_groups(ctx, chunks, max_group=10)
        # 60+60 > 100 → every chunk is its own group
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_small_chunks_packed_until_limit(self):
        cfg = EngineConfig(chunk_limit=100)
        chunks = [chunk() for _ in range(6)]
        ctx = ctx_with(cfg, {c.key: 30 for c in chunks})
        groups = plan_merge_groups(ctx, chunks, max_group=10)
        assert [len(g) for g in groups] == [3, 3]

    def test_empty(self):
        assert plan_merge_groups(ctx_with(), [], 4) == []

    def test_unknown_sizes_fall_back_to_factor(self):
        ctx = ctx_with(EngineConfig(chunk_limit=100))
        chunks = [chunk() for _ in range(5)]
        groups = plan_merge_groups(ctx, chunks, max_group=2)
        assert [len(g) for g in groups] == [2, 2, 1]


class TestReduceSelect:
    def _probe(self, ctx, in_chunks, out_bytes_each, probed=2):
        probes = [chunk() for _ in range(probed)]
        for p in probes:
            ctx.meta.put(p.key, ChunkMeta(nbytes=out_bytes_each))
        return probes, in_chunks[:probed]

    def test_small_agg_picks_tree(self):
        cfg = EngineConfig(dynamic_tiling=True, tree_reduce_threshold=10_000,
                           chunk_limit=5_000)
        chunks = [chunk() for _ in range(10)]
        ctx = ctx_with(cfg, {c.key: 1_000 for c in chunks})
        probe = self._probe(ctx, chunks, out_bytes_each=10)
        mode, n, est = choose_reduce(ctx, chunks, probe, algebraic=True)
        assert mode == "tree"
        assert est is not None and est <= 10_000

    def test_large_agg_picks_shuffle_with_sized_reducers(self):
        cfg = EngineConfig(dynamic_tiling=True, tree_reduce_threshold=1_000,
                           chunk_limit=2_000)
        chunks = [chunk() for _ in range(10)]
        ctx = ctx_with(cfg, {c.key: 1_000 for c in chunks})
        probe = self._probe(ctx, chunks, out_bytes_each=900)  # ~90% ratio
        mode, n, est = choose_reduce(ctx, chunks, probe, algebraic=True)
        assert mode == "shuffle"
        assert n == -(-est // cfg.chunk_limit)

    def test_non_algebraic_forces_shuffle(self):
        cfg = EngineConfig(dynamic_tiling=True)
        chunks = [chunk() for _ in range(4)]
        ctx = ctx_with(cfg, {c.key: 100 for c in chunks})
        mode, n, _ = choose_reduce(ctx, chunks, None, algebraic=False)
        assert mode == "shuffle"

    def test_static_policy_tree(self):
        cfg = EngineConfig(dynamic_tiling=False, static_reduce="tree")
        ctx = ctx_with(cfg)
        mode, _, est = choose_reduce(ctx, [chunk()] * 3, None, algebraic=True)
        assert mode == "tree" and est is None

    def test_static_policy_shuffle_fixed_partitions(self):
        cfg = EngineConfig(dynamic_tiling=False, static_reduce="shuffle",
                           static_shuffle_partitions=64)
        ctx = ctx_with(cfg)
        mode, n, _ = choose_reduce(ctx, [chunk()] * 3, None, algebraic=True)
        assert (mode, n) == ("shuffle", 64)

    def test_static_tree_nonalgebraic_downgrades_to_shuffle(self):
        cfg = EngineConfig(dynamic_tiling=False, static_reduce="tree")
        ctx = ctx_with(cfg)
        mode, _, _ = choose_reduce(ctx, [chunk()] * 3, None, algebraic=False)
        assert mode == "shuffle"

    def test_no_probe_metadata_defaults_to_shuffle(self):
        cfg = EngineConfig(dynamic_tiling=True)
        chunks = [chunk() for _ in range(5)]
        ctx = ctx_with(cfg, {c.key: 100 for c in chunks})
        mode, n, est = choose_reduce(ctx, chunks, None, algebraic=True)
        assert mode == "shuffle" and est is None
