"""Subtask scheduling over bands (paper Section V-B).

A *band* is the basic scheduling unit — a (worker, NUMA node) pair in
our CPU-only reproduction. Initial subtasks are placed breadth-first
("assign more initial subtasks to one worker until no bands remain
available"), and non-initial subtasks locality-aware: a successor goes
to the band holding the most bytes of its inputs, falling back to the
least-loaded band on ties or missing metadata.
"""
from __future__ import annotations

from collections import Counter

from .graph import DAG


def make_bands(n_workers: int, bands_per_worker: int) -> list[str]:
    """Band names ``w<worker>-n<numa>``, worker by worker."""
    return [f"w{w}-n{n}" for w in range(n_workers) for n in range(bands_per_worker)]


class Scheduler:
    """Assign subtasks to bands (breadth-first + locality-aware)."""

    def __init__(self, bands: list[str]) -> None:
        assert bands, "at least one band required"
        self.bands = bands

    def assign(
        self,
        subtask_dag: DAG,
        chunk_band: dict[str, str],
        subtask_nbytes,
    ) -> dict:
        """Return subtask → band name.

        ``chunk_band`` maps already-materialised chunk keys to the name
        of the band owning them (from the storage service); each chunk
        placed here is added to it.
        ``subtask_nbytes(key)`` returns the stored size of a chunk, 0 if
        unknown — used to weigh locality.
        """
        load: Counter = Counter({b: 0 for b in self.bands})
        assignment: dict = {}

        order = subtask_dag.topological_order()
        # breadth-first over initial subtasks: fill worker 0's bands,
        # then worker 1's, cycling once all bands hold one
        initial = [s for s in order if subtask_dag.in_degree(s) == 0]
        for i, sub in enumerate(initial):
            band = self.bands[i % len(self.bands)]
            assignment[sub] = band
            load[band] += 1
            for c in sub.chunks:
                chunk_band[c.key] = band

        for sub in order:
            if sub in assignment:
                continue
            # locality: weigh each candidate band by resident input bytes
            weight: Counter = Counter()
            for key in sub.input_keys:
                band_name = chunk_band.get(key)
                if band_name is not None:
                    weight[band_name] += max(1, subtask_nbytes(key))
            if weight:
                band = max(
                    weight.items(), key=lambda kv: (kv[1], -load[kv[0]])
                )[0]
            else:
                band = min(self.bands, key=lambda b: load[b])
            assignment[sub] = band
            load[band] += 1
            for c in sub.chunks:
                chunk_band[c.key] = band
        return assignment
