"""The shared row-aligned ``Operator.tile``: every 1:1 op of both
frontends expands chunk *i* of each input into output chunk *i*."""
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import ChunkMeta, ChunkNode
from repro.core.config import EngineConfig
from repro.core.graph import build_dag
from repro.core.operators import dataframe as ops
from repro.core.operators import tensor as tops
from repro.core.operators.base import (DataChunk, Elementwise, Operator,
                                       TileContext, Tileable)
from repro.frontend import dataframe as xpd
from repro.frontend import tensor as xnp
from repro.frontend.session import XSession


def source(payloads):
    """A tiled source tileable over ``payloads``, one chunk each."""
    t = Tileable(Operator(), [])
    t.chunks = [
        ChunkNode(op=DataChunk(p), index=(i, 0), meta=ChunkMeta(shape=p.shape))
        for i, p in enumerate(payloads)
    ]
    return t


def graph_sources(t, keep=lambda data: True):
    """The source chunks in the chunk graph of ``t``'s chunks whose data
    passes ``keep``, in index order."""
    return sorted((c for c in build_dag(t.chunks).nodes()
                   if isinstance(c.op, DataChunk) and keep(c.op.data)),
                  key=lambda c: c.index)


def tile(op, *inputs):
    ctx = TileContext(EngineConfig())
    ctx.inputs = list(inputs)
    return op.tile(ctx)


def frames(n, rows=10):
    return [pd.DataFrame({"a": np.arange(rows) + 100 * i,
                          "b": np.ones(rows)}) for i in range(n)]


def blocks(n, rows=10, cols=3):
    return [np.ones((rows, cols)) * i for i in range(n)]


# (op factory, input payload lists, hint copied?) for every 1:1 op
ONE_TO_ONE = {
    "elementwise": (lambda: Elementwise(lambda d: d + 1),
                    lambda n: [frames(n)], True),
    "elementwise-rows-change": (
        lambda: Elementwise(lambda d: d.dropna(), preserves_shape=False),
        lambda n: [frames(n)], False),
    "getitem": (lambda: ops.GetItem("a"), lambda n: [frames(n)], False),
    "setcolumns": (lambda: ops.SetColumns(["c"], [ops.InputRef(1)]),
                   lambda n: [frames(n), [f["a"] for f in frames(n)]], False),
    "filter": (lambda: ops.Filter(),
               lambda n: [frames(n), [f["a"] > 3 for f in frames(n)]], False),
    "rename": (lambda: ops.Rename({"a": "z"}), lambda n: [frames(n)], True),
    "tensor-elementwise": (lambda: Elementwise(lambda x, y: x * y),
                           lambda n: [blocks(n), blocks(n)], True),
    "matmul": (lambda: tops.MatMul(),
               lambda n: [blocks(n), [np.eye(3)]], False),
}


#: ops with more than one input
MULTI_INPUT = ["setcolumns", "filter", "tensor-elementwise", "matmul"]


@pytest.mark.parametrize("name", list(ONE_TO_ONE))
class TestRowAlignedTile:
    def test_chunk_i_reads_chunk_i(self, name):
        make, payloads, _ = ONE_TO_ONE[name]
        ins = [source(p) for p in payloads(4)]
        op = make()
        out = tile(op, *ins)
        assert len(out) == 4
        assert [c.index for c in out] == [(i, 0) for i in range(4)]
        for i, c in enumerate(out):
            assert c.op is op
            assert c.inputs == [t.chunks[i] if len(t.chunks) > 1 else t.chunks[0]
                                for t in ins]

    def test_shape_hint_rule(self, name):
        make, payloads, copies = ONE_TO_ONE[name]
        ins = [source(p) for p in payloads(3)]
        op = make()
        for c, first in zip(tile(op, *ins), ins[0].chunks):
            assert c.meta.shape == (first.meta.shape if copies else None)
            assert not c.meta.observed


@pytest.mark.parametrize("name", MULTI_INPUT)
def test_one_chunk_side_is_broadcast(name):
    make, payloads, _ = ONE_TO_ONE[name]
    ins = [source(p) for p in payloads(3)]
    # the last input becomes a one-chunk side
    ins[-1] = source(payloads(1)[-1])
    out = tile(make(), *ins)
    assert len(out) == 3
    assert all(c.inputs[-1] is ins[-1].chunks[0] for c in out)
    assert [c.inputs[0] for c in out] == ins[0].chunks


def test_hint_skips_a_broadcast_first_input():
    """With the one-chunk side first, the shape hint still comes from the
    side with ``n`` chunks."""
    row, a = source([np.arange(3.0)]), source(blocks(3))
    out = tile(Elementwise(lambda x, y: x + y), row, a)
    assert [c.inputs for c in out] == [[row.chunks[0], c] for c in a.chunks]
    assert [c.meta.shape for c in out] == [c.meta.shape for c in a.chunks]


@pytest.mark.parametrize("name", [n for n in MULTI_INPUT if n != "matmul"])
def test_misaligned_inputs_fail(name):
    make, payloads, _ = ONE_TO_ONE[name]
    ins = [source(payloads(3)[0]), source(payloads(2)[1])]
    op = make()
    label = getattr(op, "name", type(op).__name__)
    with pytest.raises(AssertionError, match=f"{label}: misaligned"):
        tile(op, *ins)


def test_matmul_needs_one_chunk_right_operand():
    with pytest.raises(AssertionError, match="unchunked right operand"):
        tile(tops.MatMul(), source(blocks(3)), source(blocks(2)))


def test_single_chunk_inputs_give_one_chunk():
    out = tile(Elementwise(lambda x, y: x + y), source(frames(1)), source(frames(1)))
    assert len(out) == 1 and out[0].index == (0, 0)


class TestFrontends:
    """Both frontends build the same ``Elementwise`` and tile it alike."""

    @pytest.fixture()
    def sess(self):
        s = XSession(EngineConfig(chunk_limit=8_000, n_workers=2, bands_per_worker=2))
        yield s
        s.close()

    def test_xnp_broadcast_row(self, sess):
        a = np.random.default_rng(0).random((2000, 4))
        row = np.arange(4.0)
        t = xnp.array(a, sess) + xnp.array(row, sess)
        assert type(t._t.op) is Elementwise
        sess.tiler.tile([t._t])
        src_a = graph_sources(t._t, lambda d: d.ndim == 2)
        src_row = graph_sources(t._t, lambda d: d.ndim == 1)
        assert len(src_a) > 1 and len(src_row) == 1
        assert [c.index for c in t._t.chunks] == [(i, 0) for i in range(len(src_a))]
        assert [c.meta.shape for c in t._t.chunks] == [c.meta.shape for c in src_a]
        np.testing.assert_allclose(t.to_numpy(), a + row)

    def test_xnp_broadcast_row_first(self, sess):
        a = np.random.default_rng(0).random((2000, 4))
        row = np.arange(4.0)
        t = xnp.array(row, sess) + xnp.array(a, sess)
        sess.tiler.tile([t._t])
        src_a = graph_sources(t._t, lambda d: d.ndim == 2)
        src_row = graph_sources(t._t, lambda d: d.ndim == 1)
        assert len(src_a) > 1 and len(src_row) == 1
        assert [c.meta.shape for c in t._t.chunks] == [c.meta.shape for c in src_a]
        np.testing.assert_allclose(t.to_numpy(), row + a)

    def test_xpd_series_arith(self, sess):
        pdf = pd.DataFrame({"a": np.arange(3000.0), "b": np.arange(3000.0) * 2})
        df = xpd.from_pandas(pdf, sess)
        s = df["a"] + df["b"]
        assert type(s._t.op) is Elementwise
        sess.tiler.tile([s._t])
        n = len(graph_sources(s._t))
        assert n > 1
        assert [c.index for c in s._t.chunks] == [(i, 0) for i in range(n)]
        pd.testing.assert_series_equal(s.to_pandas(), pdf["a"] + pdf["b"])
