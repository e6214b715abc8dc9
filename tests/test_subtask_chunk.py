"""Subtask-graph construction, chunk plumbing, and shims."""
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import ChunkMeta, ChunkNode, new_key
from repro.core.config import EngineConfig
from repro.core.graph import build_dag
from repro.core.operators.base import Operator
from repro.core.subtask import Subtask, build_subtask_graph
from repro.engines.shims import DaskShimFrame, ModinShimFrame


class Op(Operator):
    def __init__(self, **flags):
        for k, v in flags.items():
            setattr(self, k, v)

    def execute_chunk(self, inputs, chunk):
        return inputs[0] if inputs else None


class Ew(Op):
    elementwise = True


def node(op=None, inputs=()):
    return ChunkNode(op=op or Op(), inputs=list(inputs))


class TestChunkBasics:
    def test_new_key_unique(self):
        assert new_key() != new_key()
        assert new_key("s").startswith("s")

    def test_chunk_hash_by_key(self):
        a, b = node(), node()
        assert a != b and len({a, b}) == 2

    def test_build_chunk_dag(self):
        a = node()
        b = node(inputs=[a])
        c = node(inputs=[a, b])
        dag = build_dag([c])
        assert len(dag) == 3
        assert dag.topological_order()[0] is a

    def test_meta_from_payload_dataframe(self):
        df = pd.DataFrame({"a": [1, 2], "b": ["x", "y"]})
        m = ChunkMeta.from_payload(df)
        assert m.shape == (2, 2)
        assert m.columns == ["a", "b"]
        assert m.dtypes["a"].startswith("int")

    def test_meta_nbytes_override(self):
        df = pd.DataFrame({"a": [1]})
        assert ChunkMeta.from_payload(df, nbytes=777).nbytes == 777


class TestSubtask:
    def test_input_keys_external_only(self):
        ext = node()
        a = node(inputs=[ext])
        b = node(inputs=[a])
        s = Subtask(chunks=[a, b])
        assert s.input_keys == [ext.key]
        assert s.member_keys == {a.key, b.key}

    def test_build_graph_chain_fused(self):
        a = node(op=Ew())
        b = node(op=Ew(), inputs=[a])
        dag = build_dag([b])
        sdag, subs = build_subtask_graph(dag, EngineConfig())
        assert len(subs) == 1

    def test_build_graph_fusion_disabled(self):
        a = node(op=Ew())
        b = node(op=Ew(), inputs=[a])
        dag = build_dag([b])
        _, subs = build_subtask_graph(dag, EngineConfig(graph_fusion=False))
        assert len(subs) == 2

    def test_shuffle_edges_cross_subtasks(self):
        maps = [node(op=Op(no_fuse_out=True)) for _ in range(3)]
        reds = [node(op=Op(no_fuse_in=True), inputs=list(maps)) for _ in range(2)]
        dag = build_dag(reds)
        sdag, subs = build_subtask_graph(dag, EngineConfig())
        assert len(subs) == 5
        # every reducer subtask depends on every mapper subtask
        red_subs = [s for s in subs if s.chunks[0] in reds]
        for rs in red_subs:
            assert sdag.in_degree(rs) == 3

    def test_subtask_dag_acyclic(self):
        # diamond + chains: the fused subtask DAG must stay acyclic
        src = node(op=Ew())
        l1 = node(op=Ew(), inputs=[src])
        r1 = node(op=Op(no_fuse_in=True), inputs=[src])
        join = node(op=Op(no_fuse_in=True), inputs=[l1, r1])
        dag = build_dag([join])
        sdag, _ = build_subtask_graph(dag, EngineConfig())
        sdag.topological_order()  # raises on a cycle


class TestShims:
    @pytest.fixture()
    def pdf(self):
        return pd.DataFrame({"k": [1, 2, 1], "v": [1.0, 2.0, 3.0]})

    def test_dask_delegates_basic(self, pdf):
        shim = DaskShimFrame(pdf)
        out = shim.groupby("k").agg({"v": "sum"})
        got = out._df
        exp = pdf.groupby("k").agg({"v": "sum"})
        pd.testing.assert_frame_equal(got, exp)

    def test_dask_blocks_iloc(self, pdf):
        with pytest.raises(NotImplementedError, match="iloc"):
            DaskShimFrame(pdf).iloc

    def test_dask_blocks_pivot(self, pdf):
        with pytest.raises(NotImplementedError):
            DaskShimFrame(pdf).pivot_table(values="v", index="k", columns="k")

    def test_dask_blocks_merge_sort(self, pdf):
        with pytest.raises(NotImplementedError, match="sort"):
            DaskShimFrame(pdf).merge(DaskShimFrame(pdf), on="k", sort=True)

    def test_dask_merge_unwraps_shims(self, pdf):
        out = DaskShimFrame(pdf).merge(DaskShimFrame(pdf), on="k")
        assert len(out._df) == len(pdf.merge(pdf, on="k"))

    def test_dask_blocks_groupby_median(self, pdf):
        with pytest.raises(NotImplementedError, match="median"):
            DaskShimFrame(pdf).groupby("k").agg({"v": "median"})

    def test_modin_passes_iloc(self, pdf):
        row = ModinShimFrame(pdf).iloc[1]
        assert row["v"] == 2.0

    def test_modin_blocks_pivot_only(self, pdf):
        with pytest.raises(NotImplementedError):
            ModinShimFrame(pdf).pivot(index="k", columns="v")
        # everything else delegates
        assert len(ModinShimFrame(pdf).sort_values("v")._df) == 3

    def test_setitem_unwraps(self, pdf):
        shim = ModinShimFrame(pdf.copy())
        shim["w"] = shim["v"]
        assert list(shim._df["w"]) == list(pdf["v"])
