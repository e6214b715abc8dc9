"""The benchmark's four workloads: inputs, oracles and ops.

A workload is built from its seed in two steps that are not timed: the
inputs are generated (every generator seed derives from the workload
seed), then the oracle computes every op's expected result from the
same inputs. The timed part is :meth:`Workload.open` (sessions and
``from_pandas`` ingestion, counted in set-up) and the ops, each of
which submits work and materialises its result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np
import pandas as pd

from repro.core.config import EngineConfig
from repro.engines import XorbitsEngine
from repro.frontend import dataframe as xpd
from repro.frontend import tensor as xnp
from repro.frontend.session import XSession
from repro.oracle import _canon as canon
from repro.workloads import arrays
from repro.workloads.pipelines import PIPELINES
from repro.workloads.tpch import QUERIES
from repro import synth_data as sd

# Generator seeds are _SEED_STRIDE * workload seed + an offset; seed 0
# reproduces the generators' own defaults.
_SEED_STRIDE = 100
_TPCH_GENERATORS = {
    "lineitem": (sd.lineitem_pdf, 0), "orders": (sd.orders_pdf, 1),
    "customer": (sd.customer_pdf, 2), "part": (sd.part_pdf, 5),
    "supplier": (sd.supplier_pdf, 6), "partsupp": (sd.partsupp_pdf, 7),
    "nation": (sd.nation_pdf, 8), "region": (sd.region_pdf, 9),  # fixed lists
}


def tpch_tables(sf: float, seed: int, names: list[str]) -> dict[str, pd.DataFrame]:
    out = {}
    for name in names:
        gen, offset = _TPCH_GENERATORS[name]
        out[name] = gen(sf, seed * _SEED_STRIDE + offset)
    return out


#: one step of the canonical form's 6-place rounding: a last-digit
#: difference from another summation order can round to either side
CANON_ATOL = 1e-6


def frame_mismatch(got: Any, expected: pd.DataFrame) -> Optional[str]:
    """None when ``got`` equals ``expected`` in canonical form."""
    if not isinstance(got, pd.DataFrame):
        return f"result is {type(got).__name__}, not a DataFrame"
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(map(str, got.columns))} != {sorted(map(str, expected.columns))}"
    if len(got) != len(expected):
        return f"{len(got)} rows != {len(expected)} expected"
    try:
        pd.testing.assert_frame_equal(canon(got), canon(expected),
                                      check_dtype=False, atol=CANON_ATOL)
    except AssertionError as exc:
        return " ".join(str(exc).split())[:300]
    return None


def materialise(result: Any) -> Any:
    return result.to_pandas() if hasattr(result, "to_pandas") else result


@dataclass
class Op:
    name: str
    run: Callable[["Pass"], Any]  # timed: submit + materialise
    check: Callable[[Any], Optional[str]]  # untimed: None or failure reason


@dataclass
class Pass:
    """What one pass's ops run against: sessions live for the whole pass."""

    sessions: list[XSession] = field(default_factory=list)
    frames: dict[str, Any] = field(default_factory=dict)
    tensors: dict[str, Any] = field(default_factory=dict)

    def close(self) -> None:
        for s in self.sessions:
            s.close()


class Workload:
    """One workload's inputs, oracle results and ops (why each workload
    exists is recorded in BENCHMARK.json)."""

    name = ""
    uses_spark = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops: list[Op] = []

    def open(self, spark=None) -> Pass:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError


def _engine_config(**overrides) -> EngineConfig:
    """The paper operating point: 4 workers x 2 bands, 96 MiB a band,
    8 MiB chunks."""
    return XorbitsEngine(**overrides).config()


class _TpchWorkload(Workload):
    sf = 0.0
    queries: list[str] = []
    overrides: dict = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = _engine_config(**self.overrides)
        names = sorted({t for q in self.queries for t in QUERIES[q].tables})
        self.tables = tpch_tables(self.sf, seed, names)
        import duckdb

        con = duckdb.connect()
        try:
            for name, pdf in self.tables.items():
                con.register(name, pdf)
            expected = {q: con.execute(QUERIES[q].sql).fetchdf() for q in self.queries}
        finally:
            con.close()
        for q in self.queries:
            self.ops.append(Op(
                q,
                lambda p, fn=QUERIES[q].fn: materialise(fn(p.frames)),
                lambda got, exp=expected[q]: frame_mismatch(got, exp),
            ))

    def open(self, spark=None) -> Pass:
        s = XSession(self.cfg, spark=spark)
        return Pass([s], {n: xpd.from_pandas(pdf, s) for n, pdf in self.tables.items()})

    def describe(self) -> dict:
        return {"sf": self.sf, "queries": self.queries,
                "rows": {n: len(t) for n, t in self.tables.items()}}


class Tpch(_TpchWorkload):
    name = "tpch"
    sf = 0.2
    queries = sorted(QUERIES)


class TpchStatic(_TpchWorkload):
    name = "tpch_static"
    sf = 0.1
    queries = ["q02", "q07"]
    overrides = {"dynamic_tiling": False, "static_reduce": "shuffle",
                 "static_shuffle_partitions": 64}


class SparkTpch(_TpchWorkload):
    name = "spark_tpch"
    sf = 0.05
    queries = ["q01", "q03", "q06", "q09", "q13"]
    uses_spark = True


class DsArrays(Workload):
    name = "ds_arrays"
    sf = 0.5
    qr_shape = (200_000, 50)
    lr_shape = (500_000, 32)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = seed * _SEED_STRIDE
        self.cfg = _engine_config()
        self.tables = {
            "customers": sd.tpcxai_customers_pdf(self.sf, base + 20),
            "transactions": sd.tpcxai_transactions_pdf(self.sf, base + 21),
            "census": sd.census_pdf(self.sf, base + 22),
            "plasticc": sd.plasticc_pdf(self.sf, base + 23),
        }
        for name in ("tpcxai_uc10", "census", "plasticc"):
            fn = PIPELINES[name].fn
            expected = fn(self.tables)
            self.ops.append(Op(
                name,
                lambda p, fn=fn: materialise(fn(p.frames)),
                lambda got, exp=expected: frame_mismatch(got, exp),
            ))

        rng = np.random.default_rng(base + 30)
        self.qr_input = rng.random(self.qr_shape)
        rng = np.random.default_rng(base + 31)
        n, k = self.lr_shape
        w_true = rng.random(k)
        x = rng.random((n, k))
        y = x @ w_true + rng.normal(0, 0.01, n)
        self.lr_input = np.hstack([x, y[:, None]])
        self.lr_expected = np.linalg.lstsq(x, y, rcond=None)[0]
        self.ops.append(Op("qr", self._run_qr, self._check_qr))
        self.ops.append(Op("linear_regression", self._run_lr, self._check_lr))

    def open(self, spark=None) -> Pass:
        s = XSession(self.cfg, spark=spark)
        frames = {n: xpd.from_pandas(pdf, s) for n, pdf in self.tables.items()}
        a = arrays.make_session(spark=spark)
        tensors = {"qr": xnp.array(self.qr_input, a), "lr": xnp.array(self.lr_input, a)}
        return Pass([s, a], frames, tensors)

    @staticmethod
    def _run_qr(p: Pass):
        q, r = xnp.linalg.qr(p.tensors["qr"])
        return q.to_numpy(), r.to_numpy()

    def _check_qr(self, got) -> Optional[str]:
        q, r = got
        if not np.allclose(q @ r, self.qr_input, atol=1e-8):
            return "Q.R != A"
        if not np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-8):
            return "Q^T.Q != I"
        return None

    def _run_lr(self, p: Pass):
        k = self.lr_shape[1]
        gram = p.tensors["lr"].map_reduce(lambda a: a.T @ a, lambda u, v: u + v).to_numpy()
        return np.linalg.solve(gram[:k, :k], gram[:k, k])

    def _check_lr(self, got) -> Optional[str]:
        if not np.allclose(got, self.lr_expected, atol=1e-6):
            return "coefficients differ from numpy.linalg.lstsq"
        return None

    def describe(self) -> dict:
        return {"sf": self.sf, "pipelines": ["tpcxai_uc10", "census", "plasticc"],
                "qr_shape": self.qr_shape, "lr_shape": self.lr_shape,
                "rows": {n: len(t) for n, t in self.tables.items()}}


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Tpch, TpchStatic, DsArrays, SparkTpch)
}
