"""Chunk-size estimation, auto merge grouping, and auto reduce selection."""
import pandas as pd
import pytest

from repro.core.automerge import plan_merge_groups
from repro.core.chunk import ChunkMeta, ChunkNode, estimate_nbytes
from repro.core.config import EngineConfig
from repro.core.operators.base import Operator, TileContext
from repro.core.reduce_select import choose_reduce


class NopOp(Operator):
    def execute_chunk(self, inputs, chunk):
        return None


def chunk():
    return ChunkNode(op=NopOp(), inputs=[])


def observe(chunks, nbytes):
    """Record ``nbytes`` on each chunk node as execution would."""
    for c in chunks:
        c.meta = ChunkMeta(nbytes=nbytes, observed=True)


def ctx_with(cfg=None):
    return TileContext(cfg or EngineConfig())


class TestEstimate:
    """One estimator sizes a chunk list from what execution observed."""

    def test_hints_do_not_count(self):
        # a tile-time hint (exact source size, copied shape) is no
        # observation: with nothing observed there is no estimate
        cs = [ChunkNode(op=NopOp(), inputs=[], meta=ChunkMeta(shape=(3,), nbytes=10))
              for _ in range(3)]
        assert estimate_nbytes(cs) is None

    def test_extrapolates_from_observed_only(self):
        cs = [chunk() for _ in range(4)]
        observe(cs[:2], 10)
        cs[2].meta = ChunkMeta(nbytes=1_000)  # hint: ignored, filled by mean
        assert estimate_nbytes(cs) == 40

    def test_all_observed_is_exact(self):
        cs = [chunk(), chunk()]
        observe(cs[:1], 10)
        observe(cs[1:], 5)
        assert estimate_nbytes(cs) == 15


class TestAutoMerge:
    def test_groups_capped_by_factor(self):
        ctx = ctx_with(EngineConfig(chunk_limit=1 << 30))
        chunks = [chunk() for _ in range(10)]
        groups = plan_merge_groups(ctx, chunks, max_group=4)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_groups_capped_by_bytes(self):
        cfg = EngineConfig(chunk_limit=100)
        chunks = [chunk() for _ in range(4)]
        observe(chunks, 60)
        ctx = ctx_with(cfg)
        groups = plan_merge_groups(ctx, chunks, max_group=10)
        # 60+60 > 100 → every chunk is its own group
        assert [len(g) for g in groups] == [1, 1, 1, 1]

    def test_small_chunks_packed_until_limit(self):
        cfg = EngineConfig(chunk_limit=100)
        chunks = [chunk() for _ in range(6)]
        observe(chunks, 30)
        ctx = ctx_with(cfg)
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
    def _probe(self, in_chunks, out_bytes_each, probed=2):
        probes = [chunk() for _ in range(probed)]
        observe(probes, out_bytes_each)
        return probes, in_chunks[:probed]

    def test_small_agg_picks_tree(self):
        cfg = EngineConfig(dynamic_tiling=True, tree_reduce_threshold=10_000,
                           chunk_limit=5_000)
        chunks = [chunk() for _ in range(10)]
        observe(chunks, 1_000)
        ctx = ctx_with(cfg)
        probe = self._probe(chunks, out_bytes_each=10)
        mode, n, est = choose_reduce(ctx, chunks, probe, algebraic=True)
        assert mode == "tree"
        assert est is not None and est <= 10_000

    def test_large_agg_picks_shuffle_with_sized_reducers(self):
        cfg = EngineConfig(dynamic_tiling=True, tree_reduce_threshold=1_000,
                           chunk_limit=2_000)
        chunks = [chunk() for _ in range(10)]
        observe(chunks, 1_000)
        ctx = ctx_with(cfg)
        probe = self._probe(chunks, out_bytes_each=900)  # ~90% ratio
        mode, n, est = choose_reduce(ctx, chunks, probe, algebraic=True)
        assert mode == "shuffle"
        assert n == -(-est // cfg.chunk_limit)

    def test_non_algebraic_forces_shuffle(self):
        cfg = EngineConfig(dynamic_tiling=True)
        chunks = [chunk() for _ in range(4)]
        observe(chunks, 100)
        ctx = ctx_with(cfg)
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
        observe(chunks, 100)
        ctx = ctx_with(cfg)
        mode, n, est = choose_reduce(ctx, chunks, None, algebraic=True)
        assert mode == "shuffle" and est is None
