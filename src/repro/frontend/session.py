"""Session: wires the services (task, storage, scheduling) that
"guarantee transition between tiling and execution" (paper Fig. 5).

``init()`` mirrors ``xorbits.init()``: it creates the default session
that frontends submit to. A session owns one storage service, one
executor (local or Spark), and one dynamic tiler. Chunk metadata has no
service of its own: execution records it on the chunk nodes, so it lives
exactly as long as the graph that holds them.
"""
from __future__ import annotations

import weakref
from typing import Any, Optional

import numpy as np
import pandas as pd

from repro.core.config import EngineConfig
from repro.core.executor import BaseExecutor, LocalExecutor, SparkExecutor
from repro.core.operators.base import Tileable
from repro.core.tiling import GraphTiler
from repro.storage.service import StorageService

_default_session: Optional["XSession"] = None


class XSession:
    """One Xorbits-style session (supervisor + workers at laptop scale)."""

    def __init__(
        self,
        cfg: Optional[EngineConfig] = None,
        spark=None,
    ) -> None:
        self.cfg = cfg or EngineConfig()
        self.storage = StorageService(
            band_memory_limit=self.cfg.band_memory_limit,
            allow_spill=self.cfg.allow_spill,
        )
        if spark is not None:
            self.executor: BaseExecutor = SparkExecutor(spark, self.cfg, self.storage)
        else:
            self.executor = LocalExecutor(self.cfg, self.storage)
        self.tiler = GraphTiler(self.cfg, self.executor)

    # -- run -----------------------------------------------------------
    def run(self, *tileables: Tileable) -> list[Any]:
        """Tile (dynamically) + execute + fetch the given tileables.

        This is what deferred evaluation calls under ``__repr__`` /
        ``to_pandas`` — users never trigger it explicitly.
        """
        holds = self.tiler.tile(tileables)
        self.executor.execute([c for t in tileables for c in t.chunks], holds)
        # each target's payloads live as long as its handle does; at
        # exit there is nothing left to free, and spill files may be gone
        for t in tileables:
            drop = weakref.finalize(t, self.executor.decref, [c.key for c in t.chunks])
            drop.atexit = False
        return [self._fetch(t) for t in tileables]

    def _fetch(self, t: Tileable) -> Any:
        """A single payload as is; else the chunks in row order, ndarrays
        joined by ``np.concatenate`` and frames or series by ``pd.concat``."""
        ordered = sorted(zip(t.chunks, self.executor.fetch(t.chunks)),
                         key=lambda cp: cp[0].index)
        payloads = [p for _c, p in ordered]
        if len(payloads) == 1:
            return payloads[0]
        if isinstance(payloads[0], np.ndarray):
            return np.concatenate(payloads)
        return pd.concat(payloads)

    def close(self) -> None:
        self.storage.close()

    # -- introspection used by tests/benchmarks --------------------------
    @property
    def stats(self):
        return self.tiler.stats


def init(
    cfg: Optional[EngineConfig] = None, spark=None, **cfg_overrides
) -> XSession:
    """Create and install the default session (``xorbits.init()``)."""
    global _default_session
    if cfg is None:
        cfg = EngineConfig(**cfg_overrides)
    _default_session = XSession(cfg, spark=spark)
    return _default_session


def get_session() -> XSession:
    global _default_session
    if _default_session is None:
        _default_session = XSession()
    return _default_session
