"""The coloring graph-level fusion (paper § V-A, Fig. 7) and
operator-level elementwise fusion."""
import pandas as pd

from repro.core.chunk import ChunkNode
from repro.core.fusion import (
    FusedElementwise,
    color_graph,
    fuse_elementwise_chains,
    fusion_groups,
)
from repro.core.graph import DAG
from repro.core.operators.base import Operator


class Op(Operator):
    def __init__(self, name="op", **flags):
        self.name = name
        for k, v in flags.items():
            setattr(self, k, v)

    def execute_chunk(self, inputs, chunk):
        return inputs[0]


class Ew(Op):
    elementwise = True

    def __init__(self, fn=None, name="ew"):
        super().__init__(name)
        self.fn = fn or (lambda x: x)

    def execute_chunk(self, inputs, chunk):
        return self.fn(inputs[0])


def node(op=None, inputs=()):
    return ChunkNode(op=op or Op(), inputs=list(inputs))


def build(edges, nodes):
    dag = DAG()
    for n in nodes:
        dag.add_node(n)
    for a, b in edges:
        dag.add_edge(a, b)
    return dag


class TestColoring:
    def test_chain_single_color(self):
        a = node()
        b = node(inputs=[a])
        c = node(inputs=[b])
        dag = build([(a, b), (b, c)], [a, b, c])
        color = color_graph(dag)
        assert color[a] == color[b] == color[c]

    def test_two_sources_diverge(self):
        a, b = node(), node()
        dag = build([], [a, b])
        color = color_graph(dag)
        assert color[a] != color[b]

    def test_join_of_two_colors_gets_new_color(self):
        a, b = node(), node()
        c = node(inputs=[a, b])
        dag = build([(a, c), (b, c)], [a, b, c])
        color = color_graph(dag)
        assert len({color[a], color[b], color[c]}) == 3

    def test_triangle_fuses_entirely(self):
        # a→b→c plus a→c: every successor of a shares a's color, so
        # step 3 skips it — the whole (convex) triangle is one subtask
        a = node()
        b = node(inputs=[a])
        c = node(inputs=[a, b])
        dag = build([(a, b), (a, c), (b, c)], [a, b, c])
        color = color_graph(dag)
        assert color[a] == color[b] == color[c]

    def test_step3_separates_fanout(self):
        """Paper Fig. 7: an initial node with one same-colored successor
        chain and one differently-colored successor must not fuse into
        the chain."""
        a = node()
        chain1 = node(inputs=[a])
        other_src = node()
        join = node(inputs=[a, other_src])
        dag = build([(a, chain1), (a, join), (other_src, join)],
                    [a, chain1, other_src, join])
        color = color_graph(dag)
        assert color[chain1] != color[a]  # repainted by step 3

    def test_shuffle_barrier_no_fuse_in(self):
        mapper = node()
        reducer = node(op=Op(no_fuse_in=True), inputs=[mapper])
        dag = build([(mapper, reducer)], [mapper, reducer])
        color = color_graph(dag)
        assert color[mapper] != color[reducer]

    def test_shuffle_barrier_no_fuse_out(self):
        mapper = node(op=Op(no_fuse_out=True))
        reducer = node(inputs=[mapper])
        dag = build([(mapper, reducer)], [mapper, reducer])
        color = color_graph(dag)
        assert color[mapper] != color[reducer]


class TestFusionGroups:
    def test_chain_is_one_group(self):
        a = node()
        b = node(inputs=[a])
        dag = build([(a, b)], [a, b])
        groups = fusion_groups(dag)
        assert len(groups) == 1
        assert groups[0] == [a, b]

    def test_same_color_disconnected_not_merged(self):
        # two separate chains may reuse color ints; union-find keeps
        # disconnected components apart
        a, b = node(), node()
        a2, b2 = node(inputs=[a]), node(inputs=[b])
        dag = build([(a, a2), (b, b2)], [a, b, a2, b2])
        groups = fusion_groups(dag)
        assert len(groups) == 2

    def test_groups_topologically_ordered(self):
        a = node()
        b = node(inputs=[a])
        c = node(inputs=[b])
        dag = build([(a, b), (b, c)], [a, b, c])
        (group,) = fusion_groups(dag)
        assert group.index(a) < group.index(b) < group.index(c)

    def test_shuffle_makes_separate_groups(self):
        m1, m2 = node(op=Op(no_fuse_out=True)), node(op=Op(no_fuse_out=True))
        r = node(op=Op(no_fuse_in=True), inputs=[m1, m2])
        dag = build([(m1, r), (m2, r)], [m1, m2, r])
        assert len(fusion_groups(dag)) == 3


class TestOperatorFusion:
    def test_chain_fuses_to_one_kernel(self):
        a = node(op=Ew(lambda x: x + 1))
        b = node(op=Ew(lambda x: x * 2), inputs=[a])
        c = node(op=Ew(lambda x: x - 3), inputs=[b])
        dag = build([(a, b), (b, c)], [a, b, c])
        fused_nodes = fuse_elementwise_chains([a, b, c], dag)
        assert len(fused_nodes) == 1
        fop = fused_nodes[0].op
        assert isinstance(fop, FusedElementwise)
        assert fop.execute_chunk([10], None) == (10 + 1) * 2 - 3
        # the fused node keeps the tail's key so consumers resolve
        assert fused_nodes[0].key == c.key

    def test_non_elementwise_not_fused(self):
        a = node(op=Op())
        b = node(op=Op(), inputs=[a])
        dag = build([(a, b)], [a, b])
        assert fuse_elementwise_chains([a, b], dag) == [a, b]

    def test_branching_breaks_chain(self):
        a = node(op=Ew())
        b = node(op=Ew(), inputs=[a])
        c = node(op=Ew(), inputs=[a])  # a has two consumers
        dag = build([(a, b), (a, c)], [a, b, c])
        out = fuse_elementwise_chains([a, b, c], dag)
        assert len(out) == 3  # nothing fused across the branch

    def test_multi_input_head_allowed(self):
        x = node(op=Op())
        y = node(op=Op())
        head = node(op=Ew(), inputs=[x, y])  # e.g. Filter(df, mask)
        tail = node(op=Ew(lambda v: v), inputs=[head])
        dag = build([(x, head), (y, head), (head, tail)], [x, y, head, tail])
        out = fuse_elementwise_chains([x, y, head, tail], dag)
        fused = [n for n in out if isinstance(n.op, FusedElementwise)]
        assert len(fused) == 1
        assert fused[0].inputs == [x, y]

    def test_fused_runs_dataframe_kernels(self):
        df = pd.DataFrame({"a": [1, 2, 3]})
        a = node(op=Ew(lambda d: d[d["a"] > 1]))
        b = node(op=Ew(lambda d: d.assign(b=d["a"] * 10)), inputs=[a])
        dag = build([(a, b)], [a, b])
        (fused,) = fuse_elementwise_chains([a, b], dag)
        out = fused.op.execute_chunk([df], None)
        assert list(out["b"]) == [20, 30]
