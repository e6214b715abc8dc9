"""``xnp``: the NumPy-identical lazy Tensor frontend
(``import xorbits.numpy as np`` in paper Listing 2).

Users write plain NumPy; chunking comes from the auto rechunk algorithm
and never appears in the API — the paper's core compatibility claim for
arrays (vs. Dask's mandatory ``rechunk`` in Listing 1).
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.operators import tensor as tops
from repro.core.operators.base import Elementwise, Tileable

from .session import XSession, get_session


class Tensor:
    """Lazy distributed ndarray."""

    def __init__(self, tileable: Tileable, session: Optional[XSession] = None) -> None:
        self._t = tileable
        self._session = session or get_session()
        self._cache: Optional[np.ndarray] = None

    # -- deferred evaluation -------------------------------------------
    def execute(self) -> "Tensor":
        if self._cache is None:
            (self._cache,) = self._session.run(self._t)
        return self

    def to_numpy(self) -> np.ndarray:
        self.execute()
        return self._cache

    def __repr__(self) -> str:
        return repr(self.to_numpy())

    # -- elementwise ----------------------------------------------------
    def _ew(self, func: Callable, others=(), name="ew") -> "Tensor":
        op = Elementwise(func, name=name)
        t = op.new_tileable([self._t] + [o._t for o in others], kind="tensor")
        return Tensor(t, self._session)

    def _bin(self, other, fn, name):
        if isinstance(other, Tensor):
            return self._ew(fn, [other], name)
        return self._ew(lambda a: fn(a, other), name=name)

    def __add__(self, o):
        return self._bin(o, lambda a, b: a + b, "add")

    def __sub__(self, o):
        return self._bin(o, lambda a, b: a - b, "sub")

    def __mul__(self, o):
        return self._bin(o, lambda a, b: a * b, "mul")

    def __rmul__(self, o):
        return self._bin(o, lambda a, b: b * a, "rmul")

    def __truediv__(self, o):
        return self._bin(o, lambda a, b: a / b, "div")

    def __pow__(self, o):
        return self._bin(o, lambda a, b: a ** b, "pow")

    def __neg__(self):
        return self._ew(lambda a: -a, name="neg")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        op = tops.MatMul()
        t = op.new_tileable([self._t, other._t], kind="tensor")
        return Tensor(t, self._session)

    # -- reductions (eager scalars / small results) ---------------------
    def sum(self, axis: Optional[int] = None):
        if axis is None:
            op = tops.TensorMapReduce(lambda a: a.sum(), lambda x, y: x + y)
            t = op.new_tileable([self._t], kind="scalar")
            (v,) = self._session.run(t)
            return v
        assert axis == 0, "only axis=0 (row-chunked) reductions supported"
        op = tops.TensorMapReduce(lambda a: a.sum(axis=0), lambda x, y: x + y)
        t = op.new_tileable([self._t], kind="tensor")
        return Tensor(t, self._session)

    def map_reduce(self, map_fn: Callable, reduce_fn: Callable) -> "Tensor":
        """Generic associative reduction over row chunks (exposed for the
        LR workload's Gram-matrix accumulation)."""
        op = tops.TensorMapReduce(map_fn, reduce_fn)
        t = op.new_tileable([self._t], kind="tensor")
        return Tensor(t, self._session)


def array(arr, session: Optional[XSession] = None) -> Tensor:
    op = tops.TensorSource(np.asarray(arr))
    return Tensor(op.new_tileable([], kind="tensor"), session)


class _Random:
    def __init__(self, session: Optional[XSession] = None) -> None:
        self._session = session

    def rand(self, *shape, seed: int = 0) -> Tensor:
        op = tops.TensorRandom(shape, seed=seed)
        return Tensor(op.new_tileable([], kind="tensor"), self._session)


random = _Random()


class _Linalg:
    @staticmethod
    def qr(a: Tensor) -> tuple[Tensor, Tensor]:
        op = tops.TensorQR()
        q_t, r_t = op.new_tileables([a._t], [{"kind": "tensor"}, {"kind": "tensor"}])
        return Tensor(q_t, a._session), Tensor(r_t, a._session)


linalg = _Linalg()
