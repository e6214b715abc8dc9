"""DS pipelines, the failure harness (Tables I/II), the coverage harness
(Table V), and the registries (Tables III/IV)."""
import pandas as pd
import pytest

from repro.engines import Outcome, XorbitsEngine
from repro.harness import coverage as cov
from repro.harness import failure as fh
from repro.workloads.pipelines import PIPELINES
from repro.workloads.registry import WORKLOADS, framework_versions, table3

PIPE_SF = 0.004


def canon(df):
    df = df.reset_index(drop=True)
    df = df[sorted(df.columns)].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


class TestPipelines:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_pipeline_matches_pandas(self, name):
        p = PIPELINES[name]
        tables = p.tables_fn(PIPE_SF)
        eng = XorbitsEngine(band_budget=None, chunk_limit=64_000)
        res = eng.run_query(p.fn, tables, name=name)
        assert res.outcome is Outcome.OK, res.detail
        exp = p.fn(tables)
        pd.testing.assert_frame_equal(canon(res.result), canon(exp),
                                      check_dtype=False)

    def test_uc10_uses_broadcast_for_skewed_join(self):
        p = PIPELINES["tpcxai_uc10"]
        eng = XorbitsEngine(band_budget=None, chunk_limit=64_000)
        res = eng.run_query(p.fn, p.tables_fn(PIPE_SF), name="uc10")
        assert res.outcome is Outcome.OK
        # the engine returns a pandas frame; re-run lazily to read the
        # decision off the query's tileables
        from repro.core.config import EngineConfig
        from repro.core.graph import build_dag
        from repro.frontend import dataframe as xpd
        from repro.frontend.session import XSession

        sess = XSession(EngineConfig(chunk_limit=64_000,
                                     broadcast_threshold=1 << 20))
        tables = {k: xpd.from_pandas(v, sess)
                  for k, v in p.tables_fn(PIPE_SF).items()}
        out = p.fn(tables)
        out.to_pandas()
        dag = build_dag([out._t])
        assert "broadcast" in [t.decision for t in dag.topological_order()]
        sess.close()


class TestFailureHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return fh.run_suite(
            sfs={"SF10": 0.002},
            queries=["q01", "q06", "q13"],
        )

    def test_tidy_columns(self, results):
        assert {"sf", "engine", "query", "outcome", "seconds"} <= set(results.columns)

    def test_all_pass_at_small_sf(self, results):
        assert (results["outcome"] == "ok").all(), results[
            results["outcome"] != "ok"
        ]

    def test_table1_shape(self, results):
        t = fh.table1(results, engines=["pandas", "dask", "modin", "xorbits"])
        assert list(t.index) == ["SF10"]
        assert (t == 0).all().all()

    def test_table2_renders(self, results):
        t = fh.table2(results, sf="SF10",
                      engines=["dask", "modin", "xorbits"])
        assert "OOM or Killed" in t.index
        assert "Total" in t.index

    def test_sf_map_matches_paper_rows(self):
        assert list(fh.SF_MAP) == ["SF10", "SF100", "SF1000"]


class TestCoverageHarness:
    def test_thirty_cases(self):
        assert len(cov.CASES) == 30
        groups = pd.Series([c.group for c in cov.CASES]).value_counts()
        assert groups["groupby"] == 12
        assert groups["merge"] == 9
        assert groups["pivot"] == 6

    def test_canon_ignores_positional_labels(self):
        a = pd.DataFrame({"x": [1, 2]}, index=[5, 9])
        b = pd.DataFrame({"x": [2, 1]}, index=[0, 1])
        assert cov._equal(a, b)

    def test_canon_keeps_meaningful_index(self):
        a = pd.Series([1, 2], index=pd.Index(["p", "q"], name="k"))
        b = pd.Series([1, 2], index=pd.Index(["p", "r"], name="k"))
        assert not cov._equal(a, b)

    def test_xorbits_passes_named_agg_case(self):
        case = next(c for c in cov.CASES if c.name == "gb_namedagg_class")
        ok, detail = cov.run_case_xorbits(case)
        assert ok, detail

    def test_dask_shim_fails_iloc_case(self):
        from repro.engines.shims import DaskShimFrame

        case = next(c for c in cov.CASES if c.name == "filter_iloc")
        ok, detail = cov.run_case_shim(case, DaskShimFrame)
        assert not ok and "iloc" in detail

    def test_table5_renders(self):
        sub = [c for c in cov.CASES if c.name in
               ("gb_sum_dict", "merge_inner", "pivot_wide")]
        res = cov.run_coverage(include_pyspark=False, cases=sub)
        t = cov.table5(res)
        assert "xorbits" in t.columns


class TestRegistries:
    def test_table3_lists_paper_workloads(self):
        t = table3(measure=False)
        assert len(t) == len(WORKLOADS) == 7
        assert "TPC-H SF1000" in list(t["Workload"])

    def test_table3_measures_bytes(self):
        t = table3(measure=True, sf_override=0.002)
        measured = t[t["Workload"] == "census"]["Ours (lite)"].iloc[0]
        assert measured.endswith("MB")

    def test_framework_versions(self):
        t = framework_versions()
        assert set(t["framework"]) >= {"NumPy", "pandas", "PySpark"}
        pyspark_ver = t[t["framework"] == "PySpark"]["version"].iloc[0]
        assert pyspark_ver[0].isdigit()
