"""The xpd frontend vs pandas ground truth, operation by operation."""
import gc
import weakref

import numpy as np
import pandas as pd
import pytest

from repro.core.config import EngineConfig
from repro.frontend import dataframe as xpd
from repro.frontend.session import XSession


@pytest.fixture()
def sess():
    s = XSession(EngineConfig(chunk_limit=8_000, n_workers=2, bands_per_worker=2))
    yield s
    s.close()


@pytest.fixture()
def pdf():
    g = np.random.default_rng(42)
    n = 1200
    return pd.DataFrame(
        {
            "k": g.integers(0, 30, n),
            "cat": g.choice(list("xyz"), n),
            "v": g.random(n).round(4),
            "w": g.integers(-50, 50, n).astype("float64"),
            "d": pd.to_datetime("2020-01-01")
            + pd.to_timedelta(g.integers(0, 1000, n), unit="D"),
        }
    )


def sort_canon(df):
    df = df.reset_index(drop=True)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def check(got, exp):
    pd.testing.assert_frame_equal(sort_canon(got), sort_canon(exp),
                                  check_dtype=False)


class TestSelection:
    def test_column_series(self, sess, pdf):
        s = xpd.from_pandas(pdf, sess)["v"].to_pandas()
        assert abs(s.sum() - pdf["v"].sum()) < 1e-9

    def test_projection(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess)[["k", "v"]].to_pandas()
        check(got, pdf[["k", "v"]])

    def test_filter(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df[df["v"] < 0.3].to_pandas()
        check(got, pdf[pdf["v"] < 0.3])

    def test_compound_mask(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df[(df["v"] < 0.5) & (df["w"] > 0) | (df["k"] == 3)].to_pandas()
        exp = pdf[(pdf["v"] < 0.5) & (pdf["w"] > 0) | (pdf["k"] == 3)]
        check(got, exp)

    def test_negated_mask(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df[~(df["cat"] == "x")].to_pandas()
        check(got, pdf[~(pdf["cat"] == "x")])

    def test_isin(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df[df["k"].isin([1, 2, 3])].to_pandas()
        check(got, pdf[pdf["k"].isin([1, 2, 3])])

    def test_head(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).head(17).to_pandas()
        check(got, pdf.head(17))

    def test_columns_property(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        assert list(df.columns) == list(pdf.columns)


class TestAssignArith:
    def test_assign_expression(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df.assign(z=df["v"] * (1 - df["w"]) + 2).to_pandas()
        exp = pdf.assign(z=pdf["v"] * (1 - pdf["w"]) + 2)
        check(got, exp)

    def test_setitem(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        df["z"] = df["v"] / 2
        got = df.to_pandas()
        exp = pdf.assign(z=pdf["v"] / 2)
        check(got, exp)

    def test_assign_scalar(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).assign(one=1).to_pandas()
        check(got, pdf.assign(one=1))

    def test_dt_accessor(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df.assign(y=df["d"].dt.year, m=df["d"].dt.month).to_pandas()
        exp = pdf.assign(y=pdf["d"].dt.year, m=pdf["d"].dt.month)
        check(got, exp)

    def test_floordiv_mod(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df.assign(b=df["k"] // 7, r=df["k"] % 7).to_pandas()
        check(got, pdf.assign(b=pdf["k"] // 7, r=pdf["k"] % 7))

    def test_astype_round_abs(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df.assign(
            i=df["v"].round(1), a=df["w"].abs(), f=df["k"].astype("float64")
        ).to_pandas()
        exp = pdf.assign(
            i=pdf["v"].round(1), a=pdf["w"].abs(), f=pdf["k"].astype("float64")
        )
        check(got, exp)

    def test_fillna_dropna(self, sess):
        pdf = pd.DataFrame({"a": [1.0, None, 3.0, None], "b": [1, 2, 3, 4]})
        df = xpd.from_pandas(pdf, sess)
        check(df.fillna(0).to_pandas(), pdf.fillna(0))
        check(df.dropna(subset=["a"]).to_pandas(), pdf.dropna(subset=["a"]))


class TestGroupBy:
    def test_dict_agg(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("k").agg({"v": "sum"}).to_pandas()
        exp = pdf.groupby("k").agg({"v": "sum"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)

    def test_named_agg(self, sess, pdf):
        got = (
            xpd.from_pandas(pdf, sess)
            .groupby(["k", "cat"])
            .agg(total=("v", "sum"), hi=("w", "max"), n=("v", "size"))
            .to_pandas()
        )
        exp = pdf.groupby(["k", "cat"]).agg(
            total=("v", "sum"), hi=("w", "max"), n=("v", "size")
        )
        pd.testing.assert_frame_equal(got.sort_index(), exp.sort_index(),
                                      check_dtype=False)

    def test_mean_decomposition(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("cat").agg({"v": "mean"}).to_pandas()
        exp = pdf.groupby("cat").agg({"v": "mean"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)

    def test_nunique_shuffle_path(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("cat").agg({"k": "nunique"}).to_pandas()
        exp = pdf.groupby("cat").agg({"k": "nunique"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)

    def test_series_groupby(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("k")["v"].agg("sum").to_pandas()
        exp = pdf.groupby("k")["v"].agg("sum")
        pd.testing.assert_series_equal(got.sort_index(), exp.sort_index(),
                                       check_dtype=False)

    def test_size(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("k").size().to_pandas()
        exp = pdf.groupby("k").size()
        pd.testing.assert_series_equal(got.sort_index(), exp.sort_index(),
                                       check_dtype=False, check_names=False)

    def test_transform(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        got = df.groupby("k")["v"].transform("sum").to_pandas()
        exp = pdf.groupby("k")["v"].transform("sum")
        assert np.allclose(np.sort(got.to_numpy()), np.sort(exp.to_numpy()))

    def test_multi_func_dict(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).groupby("cat").agg({"v": ["sum", "max"]}).to_pandas()
        exp = pdf.groupby("cat").agg({"v": ["sum", "max"]})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)


class TestMergeOps:
    def test_inner(self, sess, pdf):
        right = pd.DataFrame({"k": np.arange(30), "label": [f"l{i}" for i in range(30)]})
        got = (
            xpd.from_pandas(pdf, sess)
            .merge(xpd.from_pandas(right, sess), on="k")
            .to_pandas()
        )
        check(got, pdf.merge(right, on="k"))

    def test_left(self, sess, pdf):
        right = pd.DataFrame({"k": np.arange(10), "label": list("abcdefghij")})
        got = (
            xpd.from_pandas(pdf, sess)
            .merge(xpd.from_pandas(right, sess), on="k", how="left")
            .to_pandas()
        )
        check(got, pdf.merge(right, on="k", how="left"))

    def test_left_on_right_on(self, sess, pdf):
        right = pd.DataFrame({"rk": np.arange(30), "label": np.arange(30) * 2})
        got = (
            xpd.from_pandas(pdf, sess)
            .merge(xpd.from_pandas(right, sess), left_on="k", right_on="rk")
            .to_pandas()
        )
        check(got, pdf.merge(right, left_on="k", right_on="rk"))

    def test_merge_sort(self, sess, pdf):
        right = pd.DataFrame({"k": np.arange(30), "label": np.arange(30)})
        got = (
            xpd.from_pandas(pdf, sess)
            .merge(xpd.from_pandas(right, sess), on="k", sort=True)
            .to_pandas()
        )
        assert list(got["k"]) == sorted(got["k"])


class TestSortDedupMisc:
    def test_sort_values_head(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).sort_values("v").head(25).to_pandas()
        exp = pdf.sort_values("v").head(25)
        assert np.allclose(got["v"].to_numpy(), exp["v"].to_numpy())

    def test_sort_descending_global(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).sort_values("v", ascending=False).to_pandas()
        vals = got["v"].to_numpy()
        assert (np.diff(vals) <= 1e-12).all()
        assert len(got) == len(pdf)

    def test_nlargest(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).nlargest(10, "v").to_pandas()
        exp = pdf.nlargest(10, "v")
        assert np.allclose(
            np.sort(got["v"].to_numpy()), np.sort(exp["v"].to_numpy())
        )

    def test_drop_duplicates(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).drop_duplicates(subset=["k"]).to_pandas()
        assert sorted(got["k"].unique()) == sorted(pdf["k"].unique())
        assert len(got) == pdf["k"].nunique()

    def test_rename(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess).rename(columns={"v": "value"}).to_pandas()
        assert "value" in got.columns and "v" not in got.columns

    def test_value_counts(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess)["cat"].value_counts().to_pandas()
        exp = pdf["cat"].value_counts()
        pd.testing.assert_series_equal(got.sort_index(), exp.sort_index(),
                                       check_names=False, check_dtype=False)

    def test_concat(self, sess, pdf):
        a = xpd.from_pandas(pdf.iloc[:600], sess)
        b = xpd.from_pandas(pdf.iloc[600:], sess)
        got = xpd.concat([a, b]).to_pandas()
        check(got, pdf)

    def test_pivot_table(self, sess, pdf):
        got = (
            xpd.from_pandas(pdf, sess)
            .pivot_table(values="v", index="k", columns="cat", aggfunc="sum")
            .to_pandas()
        )
        exp = pdf.pivot_table(values="v", index="k", columns="cat", aggfunc="sum")
        pd.testing.assert_frame_equal(got.sort_index(), exp.sort_index(),
                                      check_dtype=False, check_names=False)


class TestRowCountHints:
    """Ops whose output rows differ from their input's must not pass the
    input's row count on as a hint: ``head`` and ``iloc`` plan by it."""

    @pytest.fixture(params=[True, False], ids=["dynamic", "static"])
    def wide_sess(self, request):
        s = XSession(EngineConfig(chunk_limit=100_000, n_workers=2,
                                  bands_per_worker=2,
                                  dynamic_tiling=request.param))
        yield s
        s.close()

    def test_dropna_head_iloc(self, wide_sess):
        a = np.arange(40_000, dtype="float64")
        a[:30_000] = np.nan  # the first chunks drop every row
        pdf = pd.DataFrame({"a": a, "b": np.arange(40_000)})
        df = xpd.from_pandas(pdf, wide_sess).dropna()
        exp = pdf.dropna()
        pd.testing.assert_frame_equal(df.head(5).to_pandas(), exp.head(5))
        pd.testing.assert_series_equal(df.iloc[10], exp.iloc[10])

    @pytest.mark.parametrize("ascending", [True, False])
    def test_series_sort_values_multi_chunk(self, wide_sess, ascending):
        s = pd.Series(np.random.default_rng(3).random(40_000), name="x")
        xs = xpd.from_pandas(s, wide_sess)
        got = xs.sort_values(ascending=ascending).to_pandas()
        pd.testing.assert_series_equal(got, s.sort_values(ascending=ascending))

    def test_value_counts_head(self, wide_sess):
        s = pd.Series(np.random.default_rng(4).integers(0, 7, 40_000), name="k")
        got = xpd.from_pandas(s, wide_sess).value_counts().head(3).to_pandas()
        exp = s.value_counts().head(3)
        pd.testing.assert_series_equal(got, exp, check_names=False)


class TestEmptyFrame:
    """A zero-row source tiles to one zero-row chunk, so its schema
    reaches every result."""

    @pytest.fixture()
    def empty(self):
        return pd.DataFrame({"a": pd.Series([], dtype="float64"),
                             "b": pd.Series([], dtype="int64")})

    def test_to_pandas_keeps_schema(self, sess, empty):
        got = xpd.from_pandas(empty, sess).to_pandas()
        pd.testing.assert_frame_equal(got, empty)

    def test_scalars(self, sess, empty):
        df = xpd.from_pandas(empty, sess)
        assert df["a"].sum() == empty["a"].sum() == 0
        assert pd.isna(df["a"].max()) and pd.isna(empty["a"].max())

    @pytest.mark.parametrize("spec", [{"a": "sum"}, {"a": ["sum", "nunique"]}],
                             ids=["tree", "shuffle"])
    def test_groupby_agg(self, sess, empty, spec):
        got = xpd.from_pandas(empty, sess).groupby("b").agg(spec).to_pandas()
        pd.testing.assert_frame_equal(got, empty.groupby("b").agg(spec))


class TestScalars:
    def test_sum_mean_minmax(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        assert abs(df["v"].sum() - pdf["v"].sum()) < 1e-9
        assert abs(df["v"].mean() - pdf["v"].mean()) < 1e-12
        assert df["w"].min() == pdf["w"].min()
        assert df["w"].max() == pdf["w"].max()

    def test_minmax_skip_empty_chunks(self):
        """A filter that empties most chunks: their NaN/NaT partials are
        skipped, as pandas' ``skipna`` does, whatever their order."""
        pdf = pd.DataFrame({"a": np.arange(100_000, dtype=float)})
        pdf["t"] = pd.Timestamp("2020-01-01") + pd.to_timedelta(pdf["a"], unit="s")
        sess = XSession(EngineConfig(chunk_limit=100_000))
        df = xpd.from_pandas(pdf, sess)
        for col in ("a", "t"):
            got, exp = df[df["a"] > 90_000][col], pdf[pdf["a"] > 90_000][col]
            assert (got.min(), got.max()) == (exp.min(), exp.max())
            none = df[df["a"] < 0][col]
            assert pd.isna(none.min()) and pd.isna(none.max())
        assert df[df["a"] > 90_000]["a"].max() == 99_999.0
        sess.close()

    def test_count_nunique(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        assert df["k"].count() == pdf["k"].count()
        assert df["k"].nunique() == pdf["k"].nunique()

    def test_len(self, sess, pdf):
        assert len(xpd.from_pandas(pdf, sess)) == len(pdf)

    def test_unique(self, sess, pdf):
        got = xpd.from_pandas(pdf, sess)["cat"].unique()
        assert sorted(got) == sorted(pdf["cat"].unique())


class TestDeferredEvaluation:
    def test_repr_triggers_execution(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)
        filtered = df[df["v"] < 0.5]
        assert filtered._cache is None
        repr(filtered)
        assert filtered._cache is not None

    def test_execute_idempotent(self, sess, pdf):
        df = xpd.from_pandas(pdf, sess)[["k"]]
        df.execute()
        first = df._cache
        df.execute()
        assert df._cache is first


class TestQueryLifetime:
    def test_finished_query_freed_by_refcount(self, sess, pdf):
        """Ops hold their output tileables weakly: with the cyclic GC off,
        dropping the frontend objects frees the whole tileable graph."""
        import gc
        import weakref

        gc.disable()
        try:
            df = xpd.from_pandas(pdf, sess)
            right = xpd.from_pandas(pdf[["k", "w"]].drop_duplicates("k"), sess)
            filtered = df[df["v"] < 0.5]
            merged = filtered.merge(right, on="k")
            out = merged.groupby("cat").agg({"w_y": "sum"})
            got = out.to_pandas()
            refs = [weakref.ref(t) for t in (filtered._t, merged._t, out._t)]
            del df, right, filtered, merged, out
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()
        exp = pdf[pdf["v"] < 0.5].merge(
            pdf[["k", "w"]].drop_duplicates("k"), on="k"
        ).groupby("cat").agg({"w_y": "sum"})
        pd.testing.assert_frame_equal(got.sort_index(), exp, check_dtype=False)
