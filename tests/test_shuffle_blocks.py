"""Shuffle blocks and the merge reducer's join.

A mapper's buckets are blocks (column arrays, not frames); split then
concat must give back exactly what a per-bucket mask split
and ``pd.concat`` give, for every index kind and dtype. The merge
reducer joins a unique-keyed build side by indexing its keys once; its
output must equal ``DataFrame.merge`` exactly — row order, dtypes and
index included — and every other input must take pandas' own merge."""
import pickle

import cloudpickle
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import Block, payload_nbytes
from repro.core.operators.dataframe import (_MergeKw, _concat_blocks,
                                            _concat_parts, _hash_join,
                                            _merge_broadcast, _merge_reduce,
                                            _split_by_codes, hash_partition)


def typed_frame(n=60, seed=0, index="range"):
    g = np.random.default_rng(seed)
    df = pd.DataFrame({
        "k": g.integers(0, 9, n),
        "f": g.random(n),
        "b": g.random(n) < 0.5,
        "t": pd.Timestamp("2020-01-01") + pd.to_timedelta(g.integers(0, 99, n), "D"),
        "tz": pd.date_range("2021-01-01", periods=n, freq="h", tz="UTC"),
        "s": [f"s{i % 7}" for i in range(n)],
        "c": pd.Categorical(g.choice(["x", "y", "z"], n)),
        "I": pd.array(np.where(g.random(n) < 0.2, None, g.integers(0, 5, n)),
                      dtype="Int64"),
        "st": pd.array([f"v{i}" for i in range(n)], dtype="string"),
    })
    if index == "named":
        df.index = pd.Index(g.permutation(n) * 3, name="rid")
    elif index == "multi":
        df.index = pd.MultiIndex.from_arrays(
            [g.integers(0, 4, n), [f"r{i}" for i in range(n)]], names=["a", "b"])
    return df


def mask_split(df, codes, total):
    return {r: df.iloc[np.flatnonzero(codes == r)]
            for r in range(total) if (codes == r).any()}


class TestBlockRoundTrip:
    @pytest.mark.parametrize("index", ["range", "named", "multi"])
    def test_split_then_concat_equals_mask_split(self, index):
        df = typed_frame(index=index)
        codes = df["k"].to_numpy() % 5
        got = _split_by_codes(df, codes, 5)
        want = mask_split(df, codes, 5)
        assert sorted(got) == sorted(want)
        assert all(isinstance(b, Block) for b in got.values())
        for r, part in want.items():
            pd.testing.assert_frame_equal(got[r].frame(), part)
        # a reducer reading buckets of several mappers in mapper order
        halves = [df.iloc[:25], df.iloc[25:]]
        maps = [_split_by_codes(h, h["k"].to_numpy() % 5, 5) for h in halves]
        for r in range(5):
            parts = [m.get(r, m.empty) for m in maps]
            want_r = [mask_split(h, h["k"].to_numpy() % 5, 5).get(r) for h in halves]
            want_r = [w for w in want_r if w is not None]
            got_r = _concat_parts(parts)
            if want_r:
                pd.testing.assert_frame_equal(got_r, pd.concat(want_r))
            else:
                assert len(got_r) == 0
                pd.testing.assert_series_equal(got_r.dtypes, df.dtypes)

    def test_pickled_block_round_trips(self):
        df = typed_frame(index="multi")
        parts = hash_partition(df, ["k"], 3)
        for dumps in (pickle.dumps, cloudpickle.dumps):
            back = pickle.loads(dumps(parts))
            assert sorted(back) == sorted(parts)
            for r in parts:
                pd.testing.assert_frame_equal(back[r].frame(), parts[r].frame())
            pd.testing.assert_frame_equal(back.empty.frame(), parts.empty.frame())

    def test_differing_dtypes_concat_as_pandas_does(self):
        a = pd.DataFrame({"k": [1, 2], "v": [1, 2]})
        b = pd.DataFrame({"k": [3], "v": [0.5]})
        c = pd.DataFrame({"k": [4], "w": [True]})
        for parts in ([a, b], [a, c], [b, a.iloc[:0], c]):
            got = _concat_parts([Block.of(p) for p in parts])
            pd.testing.assert_frame_equal(
                got, pd.concat([p for p in parts if len(p)]))

    def test_block_meters_as_its_frame(self):
        df = typed_frame().assign(o=lambda d: [f"{v:.9f}" for v in d["f"]])
        part = df.iloc[7:40]
        assert payload_nbytes(Block.of(part)) == payload_nbytes(part)

    def test_frame_meters_alike_in_any_block_layout(self):
        """Object columns are sampled column by column, so the meter does
        not depend on how pandas happens to group them into blocks."""
        base = pd.DataFrame({"k": np.arange(300), "short": ["ab"] * 300})
        split = base.assign(long=["x" * 200] * 300)  # its own object block
        assert len(split._mgr.blocks) == 3
        joined = split.copy()  # consolidated: one object block
        assert len(joined._mgr.blocks) == 2
        assert payload_nbytes(split) == payload_nbytes(joined)

    def test_one_bucket_shares_the_input(self):
        df = typed_frame()
        (block,) = _split_by_codes(df, np.full(len(df), 2), 4).values()
        assert block.index is df.index
        pd.testing.assert_frame_equal(block.frame(), df)


def _frame(**cols):
    return pd.DataFrame(cols)


LEFT = _frame(
    k=np.array([3, 1, 2, 1, 5, 9, 2], dtype="int64"),
    a=np.arange(7) * 10,
    s=list("abcdefg"),
)
RIGHT_UNIQUE = _frame(
    k=np.array([2, 1, 3, 7], dtype="int64"),
    i=np.array([20, 10, 30, 70]),
    b=[True, False, True, False],
    t=pd.to_datetime(["2020-01-02", "2020-01-01", "2020-01-03", "2020-01-07"]),
    o=["two", "one", "three", "seven"],
    c=pd.Categorical(["p", "q", "p", "q"]),
    n=pd.array([2, None, 3, 7], dtype="Int64"),
)

CASES = {
    # name: (left, right, merge kwargs, fast path taken)
    "unique-inner": (LEFT, RIGHT_UNIQUE, dict(on="k", how="inner"), True),
    "unique-left-misses": (LEFT, RIGHT_UNIQUE, dict(on="k", how="left"), True),
    "left-no-misses": (LEFT[LEFT.k.isin([1, 2, 3])], RIGHT_UNIQUE,
                       dict(on="k", how="left"), True),
    "duplicate-build-keys": (LEFT, pd.concat([RIGHT_UNIQUE, RIGHT_UNIQUE.iloc[:2]]),
                             dict(on="k", how="inner"), False),
    "duplicate-build-keys-left": (LEFT, pd.concat([RIGHT_UNIQUE, RIGHT_UNIQUE.iloc[1:3]]),
                                  dict(on="k", how="left"), False),
    "left-on-right-on": (LEFT, RIGHT_UNIQUE.rename(columns={"k": "rk"}),
                         dict(left_on="k", right_on="rk", how="left"), True),
    "left-on-right-on-same-name": (LEFT, RIGHT_UNIQUE,
                                   dict(left_on="k", right_on="k", how="inner"), True),
    "multi-key": (LEFT.assign(j=[0, 1, 0, 1, 0, 1, 1]),
                  RIGHT_UNIQUE.assign(j=[1, 1, 0, 0]),
                  dict(on=["k", "j"], how="left"), True),
    "multi-key-left-on": (LEFT.assign(j=[0, 1, 0, 1, 0, 1, 1]),
                          RIGHT_UNIQUE.assign(j=[1, 1, 0, 0]).rename(
                              columns={"k": "rk", "j": "rj"}),
                          dict(left_on=["k", "j"], right_on=["rk", "rj"],
                               how="inner"), True),
    "clashing-names": (LEFT.assign(o="left"), RIGHT_UNIQUE,
                       dict(on="k", how="left", suffixes=("_l", "_r")), False),
    "right-join": (LEFT, RIGHT_UNIQUE, dict(on="k", how="right"), False),
    "outer-join": (LEFT, RIGHT_UNIQUE, dict(on="k", how="outer"), False),
    "nan-keys": (_frame(k=[1.0, np.nan, 2.0, np.nan], v=[1, 2, 3, 4]),
                 _frame(k=[np.nan, 2.0, 5.0], w=[10, 20, 50]),
                 dict(on="k", how="left"), True),
    "nan-multi-keys": (_frame(k=[1.0, np.nan, 2.0], j=[1, 1, 1], v=[1, 2, 3]),
                       _frame(k=[np.nan, 2.0], j=[1, 1], w=[10, 20]),
                       dict(on=["k", "j"], how="inner"), True),
    "object-keys-with-none": (_frame(k=["a", None, "b", "z"], v=[1, 2, 3, 4]),
                              _frame(k=[None, "b", "a"], w=[0.5, 1.5, 2.5]),
                              dict(on="k", how="left"), True),
    "nullable-keys-with-na": (_frame(k=pd.array([1, None, 2, 3], dtype="Int64"), v=[1, 2, 3, 4]),
                              _frame(k=pd.array([None, 2, 5], dtype="Int64"), w=[10, 20, 50]),
                              dict(on="k", how="left"), True),
    "string-keys-with-na": (_frame(k=pd.array(["a", None, "b"], dtype="string"), v=[1, 2, 3]),
                            _frame(k=pd.array([None, "b"], dtype="string"), w=[1.5, 2.5]),
                            dict(on="k", how="inner"), True),
    "categorical-keys": (_frame(k=pd.Categorical(["a", "b", "a"]), v=[1, 2, 3]),
                         _frame(k=pd.Categorical(["b", "a"]), w=[1, 2]),
                         dict(on="k", how="left"), True),
    "datetime-keys":(_frame(k=pd.to_datetime(["2020-01-01", "2020-01-03"]), v=[1, 2]),
                      _frame(k=pd.to_datetime(["2020-01-03"]), w=[3]),
                      dict(on="k", how="left"), True),
    "empty-left": (LEFT.iloc[:0], RIGHT_UNIQUE, dict(on="k", how="left"), True),
    "empty-right": (LEFT, RIGHT_UNIQUE.iloc[:0], dict(on="k", how="left"), True),
    "empty-right-inner": (LEFT, RIGHT_UNIQUE.iloc[:0], dict(on="k", how="inner"), True),
    "empty-both": (LEFT.iloc[:0], RIGHT_UNIQUE.iloc[:0], dict(on="k", how="left"), True),
    "int32-vs-int64-keys": (LEFT.astype({"k": "int32"}), RIGHT_UNIQUE,
                            dict(on="k", how="left"), True),
    "int64-vs-int32-keys-inner": (LEFT, RIGHT_UNIQUE.astype({"k": "int32"}),
                                  dict(on="k", how="inner"), True),
    "float-vs-int-keys": (LEFT.astype({"k": "float64"}), RIGHT_UNIQUE,
                          dict(on="k", how="inner"), False),
    "nullable-vs-int-keys": (LEFT.astype({"k": "Int64"}), RIGHT_UNIQUE,
                             dict(on="k", how="left"), False),
}


class TestReducerJoin:
    @pytest.mark.parametrize("case", list(CASES))
    def test_whole_sides_equal_pandas_merge(self, case):
        left, right, kwargs, fast = CASES[case]
        kw = _MergeKw(**kwargs)
        taken = _hash_join(Block.of(left), Block.of(right), kw)
        assert (taken is not None) == fast
        got = _merge_reduce([Block.of(left), Block.of(right)], kw, 1)
        pd.testing.assert_frame_equal(got, left.merge(right, **kwargs))

    @pytest.mark.parametrize("case", list(CASES))
    def test_shuffled_buckets_equal_pandas_merge(self, case):
        """Each reducer gets one bucket (or ``empty``) of two mappers per
        side and must equal pandas' merge of its concatenated sides."""
        left, right, kwargs, _fast = CASES[case]
        kw = _MergeKw(**kwargs)
        lk, rk = kw.left_keys(), kw.right_keys()
        lmaps = [hash_partition(p, lk, 3) for p in (left.iloc[:3], left.iloc[3:])]
        rmaps = [hash_partition(p, rk, 3) for p in (right.iloc[:2], right.iloc[2:])]
        for r in range(3):
            lparts = [m.get(r, m.empty) for m in lmaps]
            rparts = [m.get(r, m.empty) for m in rmaps]
            got = _merge_reduce(lparts + rparts, kw, len(lparts))
            want = _concat_parts(lparts).merge(_concat_parts(rparts), **kwargs)
            pd.testing.assert_frame_equal(got, want)

    def test_unmatched_left_rows_upcast_like_pandas(self):
        kw = _MergeKw(on="k", how="left")
        got = _hash_join(Block.of(LEFT), Block.of(RIGHT_UNIQUE), kw)
        assert got["i"].dtype == np.float64 and got["b"].dtype == object
        assert got["t"].dtype == "datetime64[ns]" and got["t"].isna().sum() == 2
        assert isinstance(got.index, pd.RangeIndex)

    def test_concat_blocks_of_one_side_keeps_part_order(self):
        parts = [Block.of(LEFT.iloc[4:]), LEFT.iloc[:0], Block.of(LEFT.iloc[:4])]
        got = _concat_blocks(parts).frame()
        pd.testing.assert_frame_equal(got, pd.concat([LEFT.iloc[4:], LEFT.iloc[:4]]))


def _broadcast_sides(variant):
    """A big side with a non-range index and a small side whose keys are
    unique unless ``variant`` says otherwise."""
    g = np.random.default_rng(7)
    big = pd.DataFrame({"k": g.integers(0, 14, 50), "j": g.integers(0, 2, 50),
                        "v": g.random(50)}, index=g.permutation(50) * 3 + 5)
    small = pd.DataFrame({"k": np.arange(12)[::-1], "w": g.integers(0, 99, 12),
                          "s": [f"s{i}" for i in range(12)]})
    on = "k"
    if variant != "multi-key":
        big = big.drop(columns="j")
    if variant == "repeated":
        small = pd.concat([small, small.iloc[3:6]])
    elif variant == "multi-key":
        small = small.assign(j=np.arange(12) % 2)
        small = pd.concat([small, small.assign(j=1 - small["j"]).iloc[:5]])
        on = ["k", "j"]
    elif variant == "int32-big":
        big = big.astype({"k": "int32"})
    elif variant == "int32-small":
        small = small.astype({"k": "int32"})
    elif variant == "nan-keys":
        big["k"] = big["k"].where(big["k"] % 5 != 0, np.nan)
        small["k"] = small["k"].astype(float).where(small["k"] != 10, np.nan)
    elif variant == "clashing":
        small["v"] = -small["w"]
    elif variant == "empty-big":
        big = big.iloc[:0]
    elif variant == "empty-small":
        small = small.iloc[:0]
    return big, small, on


_HASHED = ["unique", "multi-key", "left_on-right_on", "int32-big", "int32-small",
           "nan-keys", "empty-big", "empty-small"]
_FALLBACK = ["repeated", "clashing"]
_BROADCASTS = ([("right", how, v) for how in ("inner", "left") for v in _HASHED + _FALLBACK]
               + [("left", "inner", v) for v in _HASHED + _FALLBACK]
               + [("left", "right", v) for v in ("unique", "multi-key")])


class TestBroadcastJoin:
    """A broadcast merge chunk equals ``DataFrame.merge`` of its big chunk
    and the concatenated small side, exactly, whichever side is small.
    A unique-keyed small side takes the hash join; a right join with a
    small left side, repeated small keys and clashing names take pandas'
    merge."""

    @pytest.mark.parametrize("small_side,how,variant", _BROADCASTS)
    def test_equals_pandas_merge(self, small_side, how, variant):
        big, small, on = _broadcast_sides(variant)
        kwargs = dict(on=on, how=how)
        if variant == "left_on-right_on":  # the right side's key is "rk"
            if small_side == "right":
                small = small.rename(columns={"k": "rk"})
            else:
                big = big.rename(columns={"k": "rk"})
            kwargs = dict(left_on="k", right_on="rk", how=how)
        kw = _MergeKw(**kwargs)
        left, right = (big, small) if small_side == "right" else (small, big)
        want = left.merge(right, **kwargs)
        # the small side arrives as several chunks, one of them empty
        parts = [small.iloc[:4], small.iloc[4:4], small.iloc[4:]]
        got = _merge_broadcast(big, *parts, kw=kw, small_side=small_side)
        pd.testing.assert_frame_equal(got, want)
        hashed = _hash_join(Block.of(left), Block.of(right), kw, build=small_side)
        assert (hashed is not None) == (variant in _HASHED and how != "right")
