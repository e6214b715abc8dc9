"""Unit tests for the storage service (paper § V-C): levels, spill,
and the band memory meter behind ``SimulatedOOM``."""
import numpy as np
import pandas as pd
import pytest

from repro.core.chunk import payload_nbytes
from repro.storage.service import SimulatedOOM, StorageLevel, StorageService


def frame(rows=1000):
    return pd.DataFrame({"a": np.arange(rows), "b": np.random.rand(rows)})


class TestPayloadNbytes:
    def test_dataframe_numeric_exact(self):
        df = pd.DataFrame({"a": np.arange(100, dtype="int64"),
                           "b": np.zeros(100)})
        n = payload_nbytes(df)
        assert n >= 100 * 16  # two 8-byte columns
        assert n <= 100 * 16 + 4096  # + index overhead

    def test_object_column_estimated(self):
        df = pd.DataFrame({"s": ["hello world"] * 1000})
        n = payload_nbytes(df)
        # 1000 strings of ~60 bytes each, far above the 8-byte pointers
        assert n > 1000 * 40

    def test_series(self):
        s = pd.Series(np.arange(50, dtype="float64"))
        assert payload_nbytes(s) >= 50 * 8

    def test_ndarray(self):
        assert payload_nbytes(np.zeros((10, 10))) == 800

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_scalar(self):
        assert payload_nbytes(3.14) == 64

    def test_dict_sums_buckets(self):
        d = {0: np.zeros(10), 1: np.zeros(20)}
        assert payload_nbytes(d) == 240

    def test_tuple_sums(self):
        assert payload_nbytes((np.zeros(4), np.zeros(4))) == 64

    def test_object_estimate_tracks_deep(self):
        df = pd.DataFrame({"s": [f"string-{i}" for i in range(5000)]})
        est = payload_nbytes(df)
        deep = int(df.memory_usage(index=True, deep=True).sum())
        assert 0.5 * deep <= est <= 1.5 * deep


class TestPutGet:
    def test_roundtrip(self):
        s = StorageService()
        df = frame()
        s.put("k1", df)
        assert s.get("k1") is df
        assert s.has("k1")
        assert s.level_of("k1") is StorageLevel.MEMORY

    def test_nbytes_and_band(self):
        s = StorageService()
        s.put("k", frame(), band="w0-n1")
        assert s.nbytes_of("k") > 0
        assert s.band_usage("w0-n1").resident == s.nbytes_of("k")

    def test_precomputed_nbytes_honoured(self):
        s = StorageService()
        s.put("k", frame(), nbytes=12345)
        assert s.nbytes_of("k") == 12345

    def test_overwrite_replaces(self):
        s = StorageService()
        s.put("k", frame(10))
        first = s.nbytes_of("k")
        s.put("k", frame(1000))
        assert s.nbytes_of("k") > first

    def test_delete(self):
        s = StorageService()
        s.put("k", frame(), band="b")
        n = s.nbytes_of("k")
        s.delete("k")
        assert not s.has("k")
        assert s.band_usage("b").resident == 0
        assert n > 0

    def test_delete_missing_is_noop(self):
        StorageService().delete("missing")

    def test_delete_beyond_resident_raises(self):
        s = StorageService()
        s.put("k", frame(), band="b0", nbytes=100)
        s.band_usage("b0").resident = 40  # accounting broken elsewhere
        with pytest.raises(AssertionError, match="b0.*100.*40"):
            s.delete("k")


class TestSpill:
    def test_spill_on_band_pressure(self):
        df = frame(5000)
        limit = payload_nbytes(df) + 1000
        s = StorageService(band_memory_limit=limit)
        s.put("k1", df, band="b0")
        s.put("k2", frame(5000), band="b0")  # pushes k1 to disk
        assert s.level_of("k1") is StorageLevel.DISK
        assert s.level_of("k2") is StorageLevel.MEMORY
        assert s.spill_count == 1

    def test_spilled_chunk_reloads(self):
        df = frame(5000)
        limit = payload_nbytes(df) + 1000
        s = StorageService(band_memory_limit=limit)
        s.put("k1", df, band="b0")
        s.put("k2", frame(5000), band="b0")
        reloaded = s.get("k1")
        pd.testing.assert_frame_equal(reloaded, df)
        # and k2 was pushed out in its stead
        assert s.level_of("k2") is StorageLevel.DISK

    def test_bands_spill_independently(self):
        df = frame(5000)
        limit = payload_nbytes(df) + 1000
        s = StorageService(band_memory_limit=limit)
        s.put("a", df, band="b0")
        s.put("b", frame(5000), band="b1")
        assert s.level_of("a") is StorageLevel.MEMORY
        assert s.level_of("b") is StorageLevel.MEMORY

    def test_peak_recorded(self):
        s = StorageService(band_memory_limit=1 << 30)
        s.put("k", frame(1000), band="b0")
        s.charge_transient("b0", 500)
        s.release_transient("b0", 500)
        assert s.band_usage("b0").peak >= s.nbytes_of("k") + 500


class TestOOM:
    def test_transient_oom_unspillable(self):
        s = StorageService(band_memory_limit=10_000)
        with pytest.raises(SimulatedOOM) as exc:
            s.charge_transient("b0", 20_000)
        assert exc.value.band == "b0"
        assert exc.value.resident == 20_000

    def test_failed_charge_is_rolled_back(self):
        s = StorageService(band_memory_limit=10_000)
        with pytest.raises(SimulatedOOM):
            s.charge_transient("b0", 20_000)
        assert s.band_usage("b0").transient == 0
        s.charge_transient("b0", 5_000)  # the band is free again
        s.release_transient("b0", 5_000)

    def test_stored_chunks_spill_instead_of_oom(self):
        s = StorageService(band_memory_limit=50_000)
        for i in range(10):
            s.put(f"k{i}", frame(2000), band="b0")  # ~32KB each
        assert s.spill_count > 0  # spilled, never raised

    def test_transient_forces_spill_of_stored(self):
        df = frame(2000)
        s = StorageService(band_memory_limit=2 * payload_nbytes(df))
        s.put("k", df, band="b0")
        s.charge_transient("b0", int(1.5 * payload_nbytes(df)))
        assert s.level_of("k") is StorageLevel.DISK
        s.release_transient("b0", int(1.5 * payload_nbytes(df)))

    def test_release_beyond_charge_raises(self):
        s = StorageService(band_memory_limit=None)
        s.charge_transient("b0", 100)
        with pytest.raises(AssertionError, match="b0.*150.*100"):
            s.release_transient("b0", 150)

    def test_no_limit_never_raises(self):
        s = StorageService(band_memory_limit=None)
        s.charge_transient("b0", 1 << 40)
        s.release_transient("b0", 1 << 40)


class TestClose:
    def test_close_clears_everything(self):
        s = StorageService(band_memory_limit=1 << 30)
        s.put("k", frame(), band="b0")
        s.close()
        assert not s.has("k")
        assert s.bands == {}
