"""The benchmark harness in ``perfbench/`` times the engine by wrapping
its entry points by name and reads session state by attribute. These
tests run a traced query through the harness's own tracer and state
reader, so renaming or removing one of those hooks fails here first."""
import os
import sys

import numpy as np
import pandas as pd

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench"),
)
import spans  # noqa: E402
from run import session_state  # noqa: E402

STATE_KEYS = {
    "storage.spills", "storage.peak_band_mib", "storage.entries_end",
    "storage.mib_end", "executor.waves", "tiling.yields",
}


def _traced_query(sess):
    """Shuffle merge + groupby under the tracer; returns the tracer."""
    g = np.random.default_rng(0)
    left = pd.DataFrame({"k": g.integers(0, 50, 4000), "v": g.random(4000)})
    right = pd.DataFrame({"k": np.arange(50), "w": np.arange(50.0)})
    tracer = spans.Tracer()
    with tracer.installed():
        lf, rf = xpd.from_pandas(left, sess), xpd.from_pandas(right, sess)
        got = lf.merge(rf, on="k").groupby("k").agg({"w": "sum"}).to_pandas()
    exp = left.merge(right, on="k").groupby("k").agg({"w": "sum"})
    pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)
    return tracer


def test_tracer_and_session_state_hooks():
    # broadcast_threshold=0 forces the shuffle merge (buckets in storage)
    sess = XSession(EngineConfig(chunk_limit=16_000, broadcast_threshold=0))
    tracer = _traced_query(sess)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {spans.TILE, spans.EXECUTE, spans.KERNEL, spans.PUT,
            spans.NBYTES} <= names
    layers = spans.layer_metrics(tracer.spans, tracer.counts, 1.0)
    assert layers["executor.subtasks"] > 0
    assert layers["fusion.subtasks"] > 0
    state = session_state([sess])
    assert set(state) == STATE_KEYS
    assert state["executor.waves"] > 0
    sess.close()


def test_spark_items_carry_input_payloads(spark):
    sess = XSession(
        EngineConfig(chunk_limit=16_000, broadcast_threshold=0, n_workers=2),
        spark=spark,
    )
    tracer = _traced_query(sess)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {spans.SHIP, spans.COLLECT} <= names
    assert tracer.counts["spark.ship_bytes"] > 0
    sess.close()
