"""Array workloads (paper Table III, Fig. 8c/d): QR and linear
regression, each with the Xorbits path (auto rechunk picks chunk shapes)
and the Dask-like path (manual chunking; errors when the user's chunks
violate the tall-and-skinny rule — paper Listing 1).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import EngineConfig
from repro.core.operators import tensor as tops
from repro.frontend import tensor as xnp
from repro.frontend.session import XSession


def make_session(
    n_workers: int = 2, bands_per_worker: int = 2, chunk_limit: int = 4 << 20,
    band_budget: Optional[int] = None, spark=None,
) -> XSession:
    cfg = EngineConfig(
        chunk_limit=chunk_limit,
        n_workers=n_workers,
        bands_per_worker=bands_per_worker,
        band_memory_limit=band_budget,
    )
    return XSession(cfg, spark=spark)


@dataclass
class ArrayRunResult:
    name: str
    seconds: float
    problem_bytes: int
    #: problem bytes / second — the throughput Fig. 8c/d plots
    throughput: float
    ok: bool
    detail: str = ""


def run_qr(
    session: XSession, n_rows: int, n_cols: int, seed: int = 0,
    verify: bool = True,
) -> ArrayRunResult:
    """Xorbits QR: auto-rechunked TSQR; verifies Q·R ≈ A, Q orthonormal."""
    a = xnp.Tensor(
        tops.TensorRandom((n_rows, n_cols), seed=seed).new_tileable([], kind="tensor"),
        session,
    )
    t0 = time.perf_counter()
    q_t, r_t = xnp.linalg.qr(a)
    q = q_t.to_numpy()
    r = r_t.to_numpy()
    secs = time.perf_counter() - t0
    nbytes = n_rows * n_cols * 8
    ok, detail = True, ""
    if verify:
        a_np = a.to_numpy()  # the blocks are seeded: the same values
        ok = (
            np.allclose(q @ r, a_np, atol=1e-8)
            and np.allclose(q.T @ q, np.eye(n_cols), atol=1e-8)
        )
        detail = "" if ok else "QR verification failed"
    return ArrayRunResult("qr", secs, nbytes, nbytes / secs, ok, detail)


def run_qr_dask_like(
    session: XSession, n_rows: int, n_cols: int, chunk_rows: int, seed: int = 0
) -> ArrayRunResult:
    """Dask-like QR: the user must specify ``chunk_rows`` (Listing 1);
    chunks that are not tall-and-skinny raise, as Dask's ``linalg.qr``
    does, and a poor manual choice costs throughput."""
    if chunk_rows < n_cols:
        raise ValueError(
            "dask-like qr requires tall-and-skinny chunks: "
            f"chunk rows {chunk_rows} < columns {n_cols}; rechunk first"
        )
    src = tops.TensorRandom((n_rows, n_cols), seed=seed, chunk_rows=chunk_rows)
    a = xnp.Tensor(src.new_tileable([], kind="tensor"), session)
    t0 = time.perf_counter()
    q_t, r_t = xnp.linalg.qr(a)
    q_t.to_numpy()
    r_t.to_numpy()
    secs = time.perf_counter() - t0
    nbytes = n_rows * n_cols * 8
    return ArrayRunResult("qr-dask", secs, nbytes, nbytes / secs, True)


def run_linear_regression(
    session: XSession, n_rows: int, n_feats: int, seed: int = 1
) -> ArrayRunResult:
    """Normal-equations LR over row chunks: per-chunk Gram matrices
    tree-summed, solved on the driver; verified against numpy lstsq."""
    rng = np.random.default_rng(seed)
    w_true = rng.random(n_feats)

    # build [X | y] as one tensor so a single map/reduce computes both
    # X^T X and X^T y
    x_np = rng.random((n_rows, n_feats))
    y_np = x_np @ w_true + rng.normal(0, 0.01, n_rows)
    z_np = np.hstack([x_np, y_np[:, None]])
    z = xnp.array(z_np, session)

    t0 = time.perf_counter()
    gram = z.map_reduce(lambda a: a.T @ a, lambda p, q: p + q).to_numpy()
    a_mat = gram[:n_feats, :n_feats]
    b_vec = gram[:n_feats, n_feats]
    w_hat = np.linalg.solve(a_mat, b_vec)
    secs = time.perf_counter() - t0

    ref, *_ = np.linalg.lstsq(x_np, y_np, rcond=None)
    ok = np.allclose(w_hat, ref, atol=1e-6)
    nbytes = z_np.nbytes
    return ArrayRunResult(
        "linear-regression", secs, nbytes, nbytes / secs, ok,
        "" if ok else "LR coefficients diverge from lstsq",
    )


def weak_scaling_points(base_rows: int, n_cols: int, sockets: list[int]):
    """Per-socket problem size held constant (paper Section VI-C)."""
    return [(s, base_rows * s, n_cols) for s in sockets]
