"""Chunk-size estimation, auto merge grouping, combine trees, and auto
reduce selection."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.core.automerge import combine_tree, plan_merge_groups
from repro.core.chunk import ChunkMeta, ChunkNode, estimate_nbytes
from repro.core.config import EngineConfig
from repro.core.operators.base import Operator, TileContext, run_tile
from repro.core.operators.dataframe import DropDuplicates, GroupByAgg
from repro.core.operators.tensor import TensorMapReduce
from repro.core.reduce_select import choose_reduce


class NopOp(Operator):
    def execute_chunk(self, inputs):
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


def _tree_shape(op, n, cfg):
    """Tile ``op`` over ``n`` source chunks; return its one output as a
    nested tuple: a map chunk is its source's position, any other node
    the tuple of its inputs. Also return the number of nodes built."""
    sources = [chunk() for _ in range(n)]
    t = SimpleNamespace(op=op, inputs=[SimpleNamespace(chunks=sources)], key="t")
    [root] = run_tile(t, TileContext(cfg), None)
    built = set()

    def shape(c):
        built.add(c.key)
        if c.inputs[0] in sources:
            return sources.index(c.inputs[0])
        return tuple(shape(i) for i in c.inputs)

    return shape(root), len(built)


_Q = (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15)
# inputs → (tree, nodes built: maps + combines + the final node)
_TREES = {1: ((0,), 2), 2: ((0, 1), 3), 4: ((0, 1, 2, 3), 5),
          5: (((0, 1, 2, 3), 4), 7), 16: (_Q, 21), 17: ((_Q, 16), 23)}


class TestCombineTree:
    """One builder makes every combine tree: groups of at most 4 while
    the level is wider than 4 (a singleton passes through), then one
    final node. Unsized chunks group in fixed slices of 4."""

    @pytest.mark.parametrize("n", sorted(_TREES))
    @pytest.mark.parametrize("op", [
        lambda: GroupByAgg(["k"], {"v": "sum"}),
        lambda: TensorMapReduce(lambda a: a.sum(), lambda x, y: x + y),
        lambda: DropDuplicates(),
    ], ids=["groupby_static_tree", "tensor_map_reduce", "drop_duplicates"])
    def test_shape(self, op, n):
        cfg = EngineConfig(dynamic_tiling=False, static_reduce="tree")
        assert _tree_shape(op(), n, cfg) == _TREES[n]


def _nested(node, leaves):
    """A tree as nested tuples of its leaves' positions in ``leaves``."""
    if node in leaves:
        return leaves.index(node)
    return tuple(_nested(i, leaves) for i in node.inputs)


class TestTreeTerminates:
    """A level whose chunks are each at least ``chunk_limit`` bytes cannot
    put two in one merge group; it is combined in adjacent pairs, so
    every level shrinks and the tree ends."""

    @pytest.mark.parametrize("n, tree", [
        (5, ((0, 1), (2, 3), 4)),
        (9, (((0, 1), (2, 3)), ((4, 5), (6, 7)), 8)),
    ])
    def test_oversized_chunks_pair_up(self, n, tree, deadline):
        ctx = ctx_with(EngineConfig(chunk_limit=100))
        chunks = [chunk() for _ in range(n)]
        observe(chunks, 100)
        with deadline(10):
            root = combine_tree(ctx, chunks, sum, sum)
        assert _nested(root, chunks) == tree

    def test_groupby_tree_over_oversized_partials(self, deadline):
        """Two probed partials each at least ``chunk_limit`` bytes: the
        rest are estimated the same, and the tree path was chosen
        because the total is under ``tree_reduce_threshold``."""
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        g = np.random.default_rng(0)
        pdf = pd.DataFrame({"k": g.integers(0, 300, 4_000),
                            "s": g.integers(0, 5, 4_000), "v": g.random(4_000)})
        sess = XSession(EngineConfig(chunk_limit=16_000))
        try:
            agg = xpd.from_pandas(pdf, sess).groupby(["k", "s"]).agg({"v": "mean"})
            with deadline(60):
                got = agg.to_pandas()
            assert agg._t.decision == "tree"
        finally:
            sess.close()
        pd.testing.assert_frame_equal(got, pdf.groupby(["k", "s"]).agg({"v": "mean"}))


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
