"""SparkExecutor: the subtask-per-Spark-task execution path
(DESIGN.md § 2 — the paper's subtask ≈ a Spark task)."""
import gc
import time

import numpy as np
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend import tensor as xnp
from repro.frontend.session import XSession


@pytest.fixture()
def spark_sess(spark):
    s = XSession(
        EngineConfig(chunk_limit=40_000, n_workers=2, bands_per_worker=2),
        spark=spark,
    )
    yield s
    s.close()


def test_spark_executor_selected(spark_sess):
    from repro.core.executor import SparkExecutor

    assert isinstance(spark_sess.executor, SparkExecutor)


def test_groupby_on_spark_executor(spark_sess):
    g = np.random.default_rng(0)
    pdf = pd.DataFrame({"k": g.integers(0, 20, 4000), "v": g.random(4000)})
    df = xpd.from_pandas(pdf, spark_sess)
    got = df.groupby("k").agg(total=("v", "sum")).to_pandas()
    exp = pdf.groupby("k").agg(total=("v", "sum"))
    pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)


def test_merge_on_spark_executor(spark_sess):
    g = np.random.default_rng(1)
    left = pd.DataFrame({"k": g.integers(0, 50, 3000), "v": g.random(3000)})
    right = pd.DataFrame({"k": np.arange(50), "w": g.random(50)})
    got = (
        xpd.from_pandas(left, spark_sess)
        .merge(xpd.from_pandas(right, spark_sess), on="k")
        .to_pandas()
    )
    exp = left.merge(right, on="k")
    assert len(got) == len(exp)
    assert abs(got["v"].sum() - exp["v"].sum()) < 1e-6


def test_tensor_on_spark_executor(spark_sess):
    a_np = np.random.default_rng(2).random((2000, 16))
    q, r = xnp.linalg.qr(xnp.array(a_np, spark_sess))
    np.testing.assert_allclose(q.to_numpy() @ r.to_numpy(), a_np, atol=1e-9)


def test_spark_wave_parallelism_used(spark_sess):
    # enough chunks to trigger a real sc.parallelize wave (>1 subtask)
    pdf = pd.DataFrame({"x": np.arange(30_000, dtype="float64")})
    df = xpd.from_pandas(pdf, spark_sess)
    got = df.assign(y=df["x"] * 2).to_pandas()
    assert (got["y"].to_numpy() == pdf["x"].to_numpy() * 2).all()
    assert spark_sess.executor.tasks_executed >= 2


# -- which waves become Spark jobs ---------------------------------------

_LEFT = pd.DataFrame({"k": np.random.default_rng(3).integers(0, 50, 4000),
                      "v": np.random.default_rng(4).random(4000)})  # ~64 KB
_RIGHT = pd.DataFrame({"k": np.arange(50), "w": np.arange(50.0)})


def _merge_groupby(sess) -> pd.DataFrame:
    """Shuffle merge, then groupby: probes and shuffles make several
    multi-subtask waves."""
    lf, rf = xpd.from_pandas(_LEFT, sess), xpd.from_pandas(_RIGHT, sess)
    out = lf.merge(rf, on="k").groupby("k").agg({"w": "sum", "v": "mean"})
    return out.to_pandas().sort_index()


def _expected() -> pd.DataFrame:
    return _LEFT.merge(_RIGHT, on="k").groupby("k").agg({"w": "sum", "v": "mean"})


def _record_waves(sess, sized: bool = True) -> list[tuple[int, int]]:
    """``(subtasks, input bytes)`` of every wave ``sess`` runs from now
    on; the bytes are 0 unless ``sized``."""
    from repro.core.executor import SparkExecutor

    ex, waves = sess.executor, []
    run_specs = ex._run_specs

    def recording(specs):
        waves.append((len(specs), sized and sum(
            SparkExecutor._input_nbytes(ex, s) for s in specs)))
        return run_specs(specs)

    ex._run_specs = recording
    return waves


def _spark_jobs_of(spark, run):
    """``run()``'s result and the ids of the Spark jobs it started. The
    status tracker learns of jobs asynchronously, in order, so the ids
    are read once it has seen a sentinel job started after ``run``."""
    sc = spark.sparkContext
    group = f"gate-{id(run)}"
    sc.setJobGroup(group, "measured")
    try:
        result = run()
        sc.setJobGroup(group + "-end", "sentinel")
        sc.parallelize([0], 1).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    for _ in range(600):
        if tracker.getJobIdsForGroup(group + "-end"):
            break
        time.sleep(0.05)
    else:
        raise TimeoutError("the sentinel job never reached the status tracker")
    return result, tracker.getJobIdsForGroup(group)


def _session(spark, chunk_limit, **kw):
    return XSession(EngineConfig(chunk_limit=chunk_limit, broadcast_threshold=0,
                                 n_workers=2, **kw), spark=spark)


def test_wave_within_one_chunk_starts_no_spark_job(spark):
    sess = _session(spark, chunk_limit=1 << 20)  # above the whole input
    waves = _record_waves(sess, sized=False)
    got, jobs = _spark_jobs_of(spark, lambda: _merge_groupby(sess))
    assert any(n > 1 for n, _ in waves)
    assert jobs == []
    pd.testing.assert_frame_equal(got, _expected(), check_dtype=False)
    sess.close()


def test_each_wave_above_one_chunk_is_one_spark_job(spark):
    sess = _session(spark, chunk_limit=16_000)
    waves = _record_waves(sess)
    got, jobs = _spark_jobs_of(spark, lambda: _merge_groupby(sess))
    multi = [nbytes for n, nbytes in waves if n > 1]
    assert len(multi) >= 3 and all(nbytes >= 16_000 for nbytes in multi)
    assert len(jobs) == len(multi)
    pd.testing.assert_frame_equal(got, _expected(), check_dtype=False)
    sess.close()


def test_shipped_and_in_process_waves_match_local_executor(spark):
    """At this chunk limit some multi-subtask waves ship and one does
    not; the result, every band's peak and the final store match a
    LocalExecutor's."""
    limit = 8_000
    spark_sess = _session(spark, limit, band_memory_limit=1 << 30)
    local_sess = _session(None, limit, band_memory_limit=1 << 30)
    waves = _record_waves(spark_sess)
    got = _merge_groupby(spark_sess)
    multi = [nbytes for n, nbytes in waves if n > 1]
    assert any(b < limit for b in multi) and any(b >= limit for b in multi)
    pd.testing.assert_frame_equal(got, _merge_groupby(local_sess))
    pd.testing.assert_frame_equal(got, _expected(), check_dtype=False)

    def peaks(sess):
        return {band: u.peak for band, u in sess.storage.bands.items()}

    assert peaks(spark_sess) == peaks(local_sess) and peaks(local_sess)
    gc.collect()
    assert spark_sess.storage.keys() == [] == local_sess.storage.keys()
    spark_sess.close()
    local_sess.close()
