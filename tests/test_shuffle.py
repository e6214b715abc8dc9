"""The one shuffle stage: ``shuffle()`` builds every groupby, merge and
sort shuffle, and every chunk graph keeps its invariants — only a
``ShuffleMap`` blocks fusion on its way out, only a ``Combine`` or a
``ShuffleReduce`` blocks it on its way in, only a ``ShuffleReduce``
names a reducer, and each reducer reads every mapper of its stage."""
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import Block, ChunkMeta, ChunkNode
from repro.core.config import EngineConfig
from repro.core.executor import LocalExecutor
from repro.core.graph import build_dag
from repro.core.operators.base import (Combine, DataChunk, ShuffleMap,
                                      ShuffleReduce, shuffle)
from repro.core.operators.dataframe import hash_partition
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession
from repro.storage.service import StorageService
from repro.synth_data import tpch_tables_pdf
from repro.workloads.tpch import QUERIES


def sources(n, seed=0):
    g = np.random.default_rng(seed)
    out = []
    for i in range(n):
        df = pd.DataFrame({"k": g.integers(0, 20, 50), "v": g.random(50)})
        out.append(ChunkNode(op=DataChunk(df), index=(i, 0),
                             meta=ChunkMeta(shape=df.shape)))
    return out


def split_by_k(df):
    return hash_partition(df, ["k"], 4)


def concat(blocks):
    return pd.concat([b.frame() if isinstance(b, Block) else b for b in blocks])


class TestShuffleBuilder:
    def test_mappers_and_reducers(self):
        left, right = sources(3), sources(2, seed=1)

        def rsplit(df):
            return hash_partition(df, ["k"], 4)

        reducers = shuffle([(left, split_by_k), (right, rsplit)], 4, concat)
        maps = reducers[0].inputs
        assert len(reducers) == 4 and len(maps) == 5
        # one mapper per input chunk, indexed within its side
        assert [m.inputs for m in maps] == [[c] for c in left + right]
        assert [m.index for m in maps] == [(0, 0), (1, 0), (2, 0), (0, 0), (1, 0)]
        assert all(type(m.op) is ShuffleMap for m in maps)
        assert [m.op.split for m in maps] == [split_by_k] * 3 + [rsplit] * 2
        # every reducer reads every mapper, in side order
        assert [r.index for r in reducers] == [(r, 0) for r in range(4)]
        assert [r.op.reducer for r in reducers] == [0, 1, 2, 3]
        assert all(type(r.op) is ShuffleReduce and r.op.reduce is concat
                   for r in reducers)
        assert all(r.inputs == maps for r in reducers)
        assert all(m.op.no_fuse_out and not m.op.no_fuse_in for m in maps)
        assert all(r.op.no_fuse_in and not r.op.no_fuse_out for r in reducers)

    def test_each_reducer_gets_its_bucket(self):
        chunks = sources(3)
        reducers = shuffle([(chunks, split_by_k)], 4, concat)
        cfg = EngineConfig()
        ex = LocalExecutor(cfg, StorageService())
        ex.execute(reducers)
        everything = pd.concat([c.op.data for c in chunks])
        got = [ex.storage.get(r.key) for r in reducers]
        for r, part in enumerate(got):
            assert set(split_by_k(part)) <= {r}
        pd.testing.assert_frame_equal(pd.concat(got).sort_values(["k", "v"]),
                                      everything.sort_values(["k", "v"]))


SF = 0.002
# q04's drop_duplicates is a combine tree in both modes
INVARIANT_QUERIES = ["q02", "q03", "q04", "q07", "q13", "q18", "q21"]
INVARIANT_CONFIGS = {
    # broadcast and tree reduce off: every merge and groupby shuffles
    "dynamic": dict(chunk_limit=16_000, broadcast_threshold=0,
                    tree_reduce_threshold=0),
    "static64": dict(chunk_limit=16_000, dynamic_tiling=False,
                     static_reduce="shuffle", static_shuffle_partitions=64),
}


@pytest.fixture(scope="module")
def tpch_tables():
    return tpch_tables_pdf(SF)


def _check_invariants(dag) -> tuple[set, set]:
    """Assert the fusion-barrier and shuffle invariants on one chunk
    graph; return the split kernels of its stages and the op types that
    block fusion on their way in."""
    nodes = list(dag.nodes())
    stages: dict = {}
    consumers: dict = {}
    for c in nodes:
        assert not c.op.no_fuse_out or type(c.op) is ShuffleMap, c
        assert not c.op.no_fuse_in or type(c.op) in (Combine, ShuffleReduce), c
        assert not hasattr(c.op, "reducer") or type(c.op) is ShuffleReduce, c
        if type(c.op) is ShuffleReduce:
            maps = tuple(i.key for i in c.inputs)
            assert all(type(i.op) is ShuffleMap for i in c.inputs), c
            stages.setdefault(maps, []).append(c.op.reducer)
            for k in maps:
                consumers.setdefault(k, set()).add(maps)
    for maps, ids in stages.items():
        assert sorted(ids) == list(range(len(ids)))
    # a mapper feeds one stage, so each reducer reads all of its mappers
    assert all(len(s) == 1 for s in consumers.values())
    for c in nodes:
        if type(c.op) is ShuffleMap and c.key in consumers:
            assert all(type(s.op) is ShuffleReduce for s in dag.successors(c))
    splits = {c.op.split.func.__name__ for c in nodes if type(c.op) is ShuffleMap}
    return splits, {type(c.op) for c in nodes if c.op.no_fuse_in}


def _query_chunk_graph(out):
    """The whole chunk graph behind a query result: the result's chunks
    and everything upstream of them."""
    return build_dag(out._t.chunks)


@pytest.mark.parametrize("mode", list(INVARIANT_CONFIGS))
def test_chunk_graph_shuffle_invariants(mode, tpch_tables):
    kernels, barriers = set(), set()
    for qname in INVARIANT_QUERIES:
        q = QUERIES[qname]
        sess = XSession(EngineConfig(**INVARIANT_CONFIGS[mode]))
        frames = {n: xpd.from_pandas(tpch_tables[n], sess) for n in q.tables}
        out = q.fn(frames)
        out.to_pandas()
        splits, ops = _check_invariants(_query_chunk_graph(out))
        kernels |= splits
        barriers |= ops
        sess.close()
    assert {"_agg_split", "_merge_split"} <= kernels
    assert barriers == {Combine, ShuffleReduce}
