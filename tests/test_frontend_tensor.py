"""The xnp frontend: TSQR, matmul, reductions, elementwise — vs NumPy."""
import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.frontend import tensor as xnp
from repro.frontend.session import XSession


@pytest.fixture()
def sess():
    s = XSession(EngineConfig(chunk_limit=64_000, n_workers=2, bands_per_worker=2))
    yield s
    s.close()


@pytest.fixture()
def a_np():
    return np.random.default_rng(0).random((3000, 24))


class TestSourceChunking:
    def test_auto_rechunk_rows(self, sess, a_np):
        t = xnp.array(a_np, sess)
        sess.tiler.tile([t._t])
        shapes = [c.meta.shape for c in t._t.chunks]
        assert sum(s[0] for s in shapes) == 3000
        assert all(s[1] == 24 for s in shapes)
        assert len(shapes) > 1  # 3000*24*8 = 576KB > 64KB limit

    def test_roundtrip(self, sess, a_np):
        t = xnp.array(a_np, sess)
        np.testing.assert_array_equal(t.to_numpy(), a_np)

    def test_random_deterministic(self, sess):
        a = xnp.Tensor.__new__(xnp.Tensor)  # via public API instead:
        r1 = xnp._Random(sess).rand(500, 4, seed=7).to_numpy()
        r2 = xnp._Random(sess).rand(500, 4, seed=7).to_numpy()
        np.testing.assert_array_equal(r1, r2)


class TestElementwise:
    def test_arith_chain(self, sess, a_np):
        t = xnp.array(a_np, sess)
        got = ((t * 2 - 1) / 3 + 0.5).to_numpy()
        np.testing.assert_allclose(got, (a_np * 2 - 1) / 3 + 0.5)

    def test_tensor_tensor_ops(self, sess, a_np):
        t = xnp.array(a_np, sess)
        got = (t + t).to_numpy()
        np.testing.assert_allclose(got, a_np * 2)

    def test_neg_pow(self, sess, a_np):
        t = xnp.array(a_np, sess)
        np.testing.assert_allclose((-t).to_numpy(), -a_np)
        np.testing.assert_allclose((t ** 2).to_numpy(), a_np ** 2)


class TestReductions:
    def test_sum_scalar(self, sess, a_np):
        assert abs(xnp.array(a_np, sess).sum() - a_np.sum()) < 1e-6

    def test_sum_axis0(self, sess, a_np):
        got = xnp.array(a_np, sess).sum(axis=0).to_numpy()
        np.testing.assert_allclose(got, a_np.sum(axis=0))

    def test_map_reduce_gram(self, sess, a_np):
        got = (
            xnp.array(a_np, sess)
            .map_reduce(lambda x: x.T @ x, lambda p, q: p + q)
            .to_numpy()
        )
        np.testing.assert_allclose(got, a_np.T @ a_np, atol=1e-8)


class TestMatMul:
    def test_row_chunked_matmul(self, sess, a_np):
        b_np = np.random.default_rng(1).random((24, 5))
        got = (xnp.array(a_np, sess) @ xnp.array(b_np, sess)).to_numpy()
        np.testing.assert_allclose(got, a_np @ b_np, atol=1e-10)


class TestTSQR:
    def test_qr_reconstructs(self, sess, a_np):
        t = xnp.array(a_np, sess)
        q, r = xnp.linalg.qr(t)
        q_np, r_np = q.to_numpy(), r.to_numpy()
        assert q_np.shape == a_np.shape
        assert r_np.shape == (24, 24)
        np.testing.assert_allclose(q_np @ r_np, a_np, atol=1e-10)

    def test_q_orthonormal(self, sess, a_np):
        q, _ = xnp.linalg.qr(xnp.array(a_np, sess))
        q_np = q.to_numpy()
        np.testing.assert_allclose(q_np.T @ q_np, np.eye(24), atol=1e-10)

    def test_r_upper_triangular(self, sess, a_np):
        _, r = xnp.linalg.qr(xnp.array(a_np, sess))
        r_np = r.to_numpy()
        np.testing.assert_allclose(r_np, np.triu(r_np), atol=1e-12)

    def test_qr_matches_numpy_magnitudes(self, sess, a_np):
        # R is unique up to row signs for full-rank A
        _, r = xnp.linalg.qr(xnp.array(a_np, sess))
        _, r_ref = np.linalg.qr(a_np)
        np.testing.assert_allclose(np.abs(r.to_numpy()), np.abs(r_ref), atol=1e-8)

    def test_sibling_output_tiled_once(self, sess, a_np):
        """Running Q tiles the op once and gives R its chunks too, so
        running R later re-tiles nothing."""
        q, r = xnp.linalg.qr(xnp.array(a_np, sess))
        q_np = q.to_numpy()
        r_chunks = r._t.chunks
        assert r_chunks is not None
        r_np = r.to_numpy()
        assert r._t.chunks is r_chunks
        np.testing.assert_allclose(q_np @ r_np, a_np, atol=1e-10)

    def test_dropped_sibling_output(self, sess, a_np):
        """With Q dropped before R runs, the op keeps no Q to tile."""
        t = xnp.array(a_np, sess)
        r = xnp.linalg.qr(t)[1]
        assert r._t.op.outputs == [r._t]
        _, r_ref = np.linalg.qr(a_np)
        np.testing.assert_allclose(np.abs(r.to_numpy()), np.abs(r_ref), atol=1e-8)

    def test_qr_of_broadcast_row_plus_matrix(self):
        """QR trusts its input's shape hints, so a row broadcast on the
        left must not hint every chunk as the row."""
        s = XSession(EngineConfig(chunk_limit=16_000, n_workers=2, bands_per_worker=2))
        a = np.random.default_rng(1).random((2000, 4))
        row = np.arange(4.0)
        t = xnp.array(row, s) + xnp.array(a, s)
        q, r = xnp.linalg.qr(t)
        q_np, r_np = q.to_numpy(), r.to_numpy()
        assert len(t._t.chunks) > 1
        np.testing.assert_allclose(q_np @ r_np, row + a, atol=1e-10)
        np.testing.assert_allclose(q_np.T @ q_np, np.eye(4), atol=1e-10)
        s.close()

    def test_short_chunks_automerged(self, sess):
        """Chunks shorter than n_cols must be merged before local QR —
        the step Dask offloads to the user."""
        from repro.core.operators import tensor as tops

        a_np = np.random.default_rng(2).random((100, 30))
        src = tops.TensorRandom((100, 30), seed=5, chunk_rows=10)  # 10 < 30
        t = xnp.Tensor(src.new_tileable([], kind="tensor"), sess)
        q, r = xnp.linalg.qr(t)
        q_np, r_np = q.to_numpy(), r.to_numpy()
        np.testing.assert_allclose(q_np.T @ q_np, np.eye(30), atol=1e-8)
        assert r_np.shape == (30, 30)


class TestWorkloads:
    def test_linear_regression_recovers_weights(self):
        from repro.workloads.arrays import make_session, run_linear_regression

        s = make_session(chunk_limit=256_000)
        res = run_linear_regression(s, 20_000, 8)
        assert res.ok, res.detail
        s.close()

    def test_qr_workload(self):
        from repro.workloads.arrays import make_session, run_qr

        s = make_session(chunk_limit=256_000)
        res = run_qr(s, 5_000, 16)
        assert res.ok, res.detail
        assert res.throughput > 0
        s.close()

    def test_dask_like_rejects_bad_chunks(self):
        from repro.workloads.arrays import make_session, run_qr_dask_like

        s = make_session()
        with pytest.raises(ValueError, match="tall-and-skinny"):
            run_qr_dask_like(s, 1000, 64, chunk_rows=32)
        s.close()

    def test_dask_like_runs_with_manual_chunks(self):
        from repro.workloads.arrays import make_session, run_qr_dask_like

        s = make_session()
        res = run_qr_dask_like(s, 4000, 16, chunk_rows=500)
        assert res.ok
        s.close()
