"""Band scheduling (paper § V-B): breadth-first + locality-aware."""
from repro.core.chunk import ChunkNode
from repro.core.graph import DAG
from repro.core.operators.base import Operator
from repro.core.scheduler import Scheduler, make_bands
from repro.core.subtask import Subtask


class NopOp(Operator):
    def execute_chunk(self, inputs):
        return None


def subtask(inputs=()):
    chunk = ChunkNode(op=NopOp(), inputs=list(inputs))
    return Subtask(chunks=[chunk]), chunk


class TestBands:
    def test_make_bands(self):
        bands = make_bands(2, 2)
        assert bands == ["w0-n0", "w0-n1", "w1-n0", "w1-n1"]


def build_dag(subtasks, edges):
    dag = DAG()
    for s in subtasks:
        dag.add_node(s)
    for a, b in edges:
        dag.add_edge(a, b)
    return dag


class TestBreadthFirst:
    def test_initial_subtasks_spread_over_bands(self):
        bands = make_bands(2, 2)
        sched = Scheduler(bands)
        subs = [subtask()[0] for _ in range(8)]
        dag = build_dag(subs, [])
        assign = sched.assign(dag, {}, lambda k: 0)
        names = [assign[s] for s in subs]
        # round-robin over all four bands, twice
        assert names[:4] == ["w0-n0", "w0-n1", "w1-n0", "w1-n1"]
        assert len(set(names)) == 4

    def test_first_worker_filled_first(self):
        bands = make_bands(2, 2)
        sched = Scheduler(bands)
        subs = [subtask()[0] for _ in range(2)]
        dag = build_dag(subs, [])
        assign = sched.assign(dag, {}, lambda k: 0)
        assert all(assign[s].startswith("w0-") for s in subs)


class TestLocality:
    def test_successor_follows_input_bytes(self):
        bands = make_bands(2, 2)
        sched = Scheduler(bands)
        s1, c1 = subtask()
        s2, c2 = subtask()
        succ, _ = subtask(inputs=[c1, c2])
        dag = build_dag([s1, s2, succ], [(s1, succ), (s2, succ)])
        sizes = {c1.key: 10, c2.key: 10_000}
        assign = sched.assign(dag, {}, lambda k: sizes.get(k, 0))
        # succ lands where the bigger input (c2 → s2's band) lives
        assert assign[succ] == assign[s2]

    def test_successor_without_metadata_goes_least_loaded(self):
        bands = make_bands(1, 2)
        sched = Scheduler(bands)
        s1, _ = subtask()
        orphan_input = ChunkNode(op=NopOp(), inputs=[])
        succ = Subtask(chunks=[ChunkNode(op=NopOp(), inputs=[orphan_input])])
        dag = build_dag([s1, succ], [])
        assign = sched.assign(dag, {}, lambda k: 0)
        assert assign[succ] is not None

    def test_every_subtask_assigned(self):
        bands = make_bands(3, 2)
        sched = Scheduler(bands)
        layers = [[subtask()[0] for _ in range(4)] for _ in range(3)]
        edges = []
        for up, down in zip(layers, layers[1:]):
            for a, b in zip(up, down):
                edges.append((a, b))
        dag = build_dag([s for l in layers for s in l], edges)
        assign = sched.assign(dag, {}, lambda k: 0)
        assert len(assign) == 12
        assert all(b is not None for b in assign.values())

    def test_chunk_band_map_updated(self):
        bands = make_bands(1, 1)
        sched = Scheduler(bands)
        s1, c1 = subtask()
        dag = build_dag([s1], [])
        chunk_band = {}
        sched.assign(dag, chunk_band, lambda k: 0)
        assert chunk_band[c1.key] == "w0-n0"
