"""Unit tests for the generic DAG shared by all three graph levels."""
import pytest

from repro.core.graph import DAG


def chain(n):
    g = DAG()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = DAG()
        g.add_node("a")
        g.add_node("a")
        assert len(g) == 1

    def test_add_edge_inserts_nodes(self):
        g = DAG()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g

    def test_parallel_edges_collapse(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.successors("a") == ["b"]
        assert g.in_degree("b") == 1

    def test_len_and_nodes(self):
        g = chain(5)
        assert len(g) == 5
        assert sorted(g.nodes()) == [0, 1, 2, 3, 4]


class TestQueries:
    def test_initial_and_sink_nodes(self):
        g = DAG()
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        assert [n for n in g.nodes() if g.in_degree(n) == 0] == ["a", "b"]
        assert g.sink_nodes() == ["d"]

    def test_degrees(self):
        g = DAG()
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        assert g.in_degree("c") == 2
        assert g.out_degree("a") == 1


class TestTopology:
    def test_topological_order_chain(self):
        assert chain(6).topological_order() == [0, 1, 2, 3, 4, 5]

    def test_topological_order_respects_edges(self):
        g = DAG()
        g.add_edge("b", "a")
        g.add_edge("c", "a")
        order = g.topological_order()
        assert order.index("a") > order.index("b")
        assert order.index("a") > order.index("c")

    def test_topological_order_deterministic(self):
        g = DAG()
        for n in "xyz":
            g.add_node(n)
        assert g.topological_order() == ["x", "y", "z"]
        assert g.topological_order() == ["x", "y", "z"]

    def test_cycle_detected(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            g.topological_order()

    def test_reverse_topological_order(self):
        assert chain(3).reverse_topological_order() == [2, 1, 0]

    def test_subgraph(self):
        g = chain(5)
        sub = g.subgraph([1, 2, 3])
        assert len(sub) == 3
        assert sub.successors(1) == [2]
        assert sub.predecessors(1) == []
        assert [n for n in sub.nodes() if sub.in_degree(n) == 0] == [1]
