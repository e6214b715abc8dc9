"""Unit tests for dataframe operator helpers and chunk kernels."""
import pickle

import cloudpickle
import numpy as np
import pandas as pd
import pytest

from repro.core.operators.dataframe import (
    ALGEBRAIC_FUNCS,
    _agg_combine,
    _agg_finalize,
    _agg_map,
    _concat_parts,
    _detect_hot_keys,
    _merge_split,
    _range_split,
    hash_partition,
    _split_by_codes,
    normalize_aggs,
    split_pandas,
)


def frame(n=100, keys=5, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame({"k": g.integers(0, keys, n), "v": g.random(n)})


def _owner(arr):
    """The ndarray that owns ``arr``'s memory (end of its ``base`` chain)."""
    arr = np.asarray(arr)
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class TestSplitPandas:
    def test_splits_cover_rows(self):
        df = frame(1000)
        parts, total = split_pandas(df, 4096)
        assert total == df.memory_usage(index=True).sum()
        assert sum(len(p) for p in parts) == 1000
        assert len(parts) > 1

    def test_single_part_when_fits(self):
        df = frame(10)
        assert len(split_pandas(df, 1 << 30)[0]) == 1

    def test_never_more_parts_than_rows(self):
        df = frame(3)
        assert len(split_pandas(df, 1)[0]) <= 3


class TestHashPartition:
    def test_partition_covers_all_rows(self):
        df = frame(500, keys=50)
        parts = hash_partition(df, ["k"], 8)
        assert sum(len(p) for p in parts.values()) == 500
        assert set(parts) == set(range(8))

    def test_same_key_same_bucket(self):
        df = frame(500, keys=50)
        parts = hash_partition(df, ["k"], 8)
        seen = {}
        for r, p in parts.items():
            for k in p.frame()["k"].unique():
                assert seen.setdefault(k, r) == r

    def test_deterministic(self):
        df = frame(200)
        a = hash_partition(df, ["k"], 4)
        b = hash_partition(df, ["k"], 4)
        for r in a:
            pd.testing.assert_frame_equal(a[r].frame(), b[r].frame())

    def test_multi_key(self):
        df = frame(300).assign(k2=np.arange(300) % 3)
        parts = hash_partition(df, ["k", "k2"], 4)
        assert sum(len(p) for p in parts.values()) == 300

    def test_total_pads_empty_buckets(self):
        df = frame(100).assign(
            s=[f"s{i % 7}" for i in range(100)],
            c=pd.Categorical([("x", "y")[i % 2] for i in range(100)]),
        ).set_axis(np.arange(100) * 3).iloc[5:]
        parts = hash_partition(df, ["k"], 2, total=5)
        # only non-empty buckets are present; `empty` carries the schema
        assert set(parts) <= {0, 1}
        assert all(len(p) for p in parts.values())
        assert sum(len(p) for p in parts.values()) == len(df)
        empty = parts.empty.frame()
        assert len(empty) == 0
        assert list(empty.columns) == list(df.columns)
        pd.testing.assert_series_equal(empty.dtypes, df.dtypes)
        # a detached copy: it must not keep the mapper's input alive
        for col in df.columns:
            assert not np.shares_memory(empty[col].to_numpy(), df[col].to_numpy())
        for arr in [blk.values for blk in empty._mgr.blocks] + [empty.index.to_numpy()]:
            assert _owner(arr).size == 0
        for dumps, loads in ((pickle.dumps, pickle.loads),
                             (cloudpickle.dumps, cloudpickle.loads)):
            back = loads(dumps(parts))
            assert type(back) is type(parts) and set(back) == set(parts)
            pd.testing.assert_frame_equal(back.empty.frame(), empty)
            for r in parts:
                pd.testing.assert_frame_equal(back[r].frame(), parts[r].frame())

    def test_empty_input_stores_no_bucket(self):
        parts = hash_partition(frame(10).iloc[:0], ["k"], 4)
        assert dict(parts) == {}
        assert list(parts.empty.columns) == ["k", "v"]

    def test_single_bucket(self):
        df = frame(50)
        parts = hash_partition(df, ["k"], 1)
        assert len(parts[0]) == 50


def _mask_split(df, codes, total):
    """Reference split: one boolean scan per bucket, empties dropped."""
    return {r: df.iloc[np.flatnonzero(codes == r)]
            for r in range(total) if (codes == r).any()}


class TestSplitByCodes:
    """The stable-sort split equals a per-bucket mask scan, row order
    included, on hash and range shuffles."""

    @staticmethod
    def _tied(n=400, seed=3):
        g = np.random.default_rng(seed)
        # few distinct sort keys: many ties, and the index is shuffled
        return pd.DataFrame({"key": g.integers(0, 6, n), "v": np.arange(n)},
                            index=g.permutation(n))

    @staticmethod
    def _assert_same(got, want):
        assert list(got) == sorted(want)
        for r, part in want.items():
            pd.testing.assert_frame_equal(got[r].frame(), part)

    def test_matches_mask_split(self):
        df = self._tied()
        codes = df["key"].to_numpy() % 9  # buckets 6..8 stay empty
        self._assert_same(_split_by_codes(df, codes, 9), _mask_split(df, codes, 9))

    @pytest.mark.parametrize("ascending", [True, False])
    def test_range_split_matches_mask_split(self, ascending):
        df = self._tied()
        bounds = np.array([1, 1, 3, 4, 9])  # a repeated and an unreached bound
        codes = np.searchsorted(bounds, df["key"].to_numpy(), side="right")
        if not ascending:
            codes = len(bounds) - codes
        got = _range_split(df, ["key"], bounds, ascending)
        self._assert_same(got, _mask_split(df, codes, len(bounds) + 1))
        assert len(got) < len(bounds) + 1
        pd.testing.assert_series_equal(got.empty.frame().dtypes, df.dtypes)


class TestNormalizeAggs:
    def test_single_func(self):
        specs, layout = normalize_aggs("sum", {})
        assert specs == [("__all__", None, "sum")]
        assert layout == "flat"

    def test_dict(self):
        specs, layout = normalize_aggs({"v": "sum", "w": "mean"}, {})
        assert specs == [("v", "v", "sum"), ("w", "w", "mean")]

    def test_dict_of_list_is_multiindex(self):
        specs, layout = normalize_aggs({"v": ["sum", "max"]}, {})
        assert layout == "multi"
        assert specs == [("v|sum", "v", "sum"), ("v|max", "v", "max")]

    def test_named_tuple_kwargs(self):
        specs, _ = normalize_aggs(None, {"total": ("v", "sum")})
        assert specs == [("total", "v", "sum")]

    def test_namedagg_kwargs(self):
        specs, _ = normalize_aggs(
            None, {"total": pd.NamedAgg(column="v", aggfunc="sum")}
        )
        assert specs == [("total", "v", "sum")]

    def test_unsupported(self):
        with pytest.raises(TypeError):
            normalize_aggs(3.14, {})

    def test_algebraic_set(self):
        assert {"sum", "mean", "min", "max", "count", "size"} == ALGEBRAIC_FUNCS


class TestAggKernels:
    def test_map_combine_finalize_matches_pandas(self):
        df = frame(1000, keys=7, seed=3)
        specs = [("total", "v", "sum"), ("avg", "v", "mean"),
                 ("n", "v", "size"), ("lo", "v", "min")]
        halves = [df.iloc[:500], df.iloc[500:]]
        partials = [_agg_map(h, ["k"], specs) for h in halves]
        combined = _agg_combine(*partials)
        final = _agg_finalize(combined, keys=["k"], specs=specs, layout="flat")
        exp = df.groupby("k").agg(
            total=("v", "sum"), avg=("v", "mean"), n=("v", "size"),
            lo=("v", "min"),
        )
        pd.testing.assert_frame_equal(final, exp, check_dtype=False)

    def test_map_rejects_non_algebraic(self):
        with pytest.raises(ValueError):
            _agg_map(frame(10), ["k"], [("u", "v", "nunique")])


class TestConcatParts:
    def test_skips_empty(self):
        df = frame(10)
        out = _concat_parts([df.iloc[0:0], df, df.iloc[0:0]])
        pd.testing.assert_frame_equal(out, df)

    def test_all_empty_keeps_schema(self):
        df = frame(10)
        out = _concat_parts([df.iloc[0:0], df.iloc[0:0]])
        assert list(out.columns) == list(df.columns)
        assert len(out) == 0

    def test_multiple_nonempty(self):
        df = frame(10)
        out = _concat_parts([df.iloc[:5], df.iloc[5:]])
        assert len(out) == 10


class TestCompositeHotKeys:
    """Composite join keys are counted and matched without building a
    tuple per row; hot sets and row splits match the tuple path."""

    @staticmethod
    def tied_frame():
        # 30 composite keys with equal counts: head(20) cuts inside a
        # tie, so the hot set depends on tie order
        g = np.random.default_rng(5)
        ka = np.repeat(np.arange(30) % 7, 40)
        kb = np.repeat([f"s{i}" for i in range(30)], 40)
        perm = g.permutation(len(ka))
        return pd.DataFrame({"a": ka[perm], "b": kb[perm],
                             "v": g.random(len(ka))})

    @staticmethod
    def tuple_top20(df, keys):
        kv = df[keys].astype(object).apply(tuple, axis=1)
        return list(kv.value_counts().head(20).index)

    def test_hot_keys_match_tuple_path(self):
        from repro.core.chunk import ChunkMeta, ChunkNode, payload_nbytes
        from repro.core.config import EngineConfig
        from repro.core.operators.base import TileContext
        from repro.storage.service import StorageService

        df = self.tied_frame()
        chunk = ChunkNode(op=None, inputs=[],
                          meta=ChunkMeta.from_payload(df, nbytes=payload_nbytes(df),
                                                     observed=True))
        storage = StorageService()
        storage.put(chunk.key, df)
        # any key seen 40 times in the (only) probed chunk is hot
        ctx = TileContext(EngineConfig(chunk_limit=1), storage=storage)
        hot, _ = _detect_hot_keys(ctx, [chunk], [], ["a", "b"], ["a", "b"])
        want = self.tuple_top20(df, ["a", "b"])
        assert len(want) == 20
        assert hot == set(want)

    def test_shuffle_map_row_split_matches_tuple_path(self):
        df = self.tied_frame()
        keys = ["a", "b"]
        hot = frozenset(self.tuple_top20(df, keys)[:5])
        out = _merge_split(df, keys, 4, hot, hot_buckets=2)
        tuple_mask = df[keys].astype(object).apply(tuple, axis=1).isin(hot)
        cold = hash_partition(df[~tuple_mask], keys, 4, total=6)
        for r in range(4):
            pd.testing.assert_frame_equal(out[r].frame(), cold[r].frame())
        hot_rows = out[4].index.append(out[5].index)
        assert sorted(hot_rows) == sorted(df.index[tuple_mask])
