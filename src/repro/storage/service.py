"""Storage service for intermediate results (paper Section V-C).

Holds every chunk produced by every operator, keyed by the chunk's
unique ``key`` — workers "read and write data by indexing the key
without knowing where the data actually is". Mirrors the paper's three
design points at laptop scale:

* **Memory hierarchy** — two :class:`StorageLevel`s, MEMORY and DISK.
  A band whose memory-resident chunks exceed its budget spills
  least-recently-used chunks to pickle files on local disk; ``get``
  transparently reloads (and re-spills others if needed). This is the
  paper's shared-memory + spill configuration.
* **Minimised data transfer** — within one process payloads are stored
  by reference (the paper uses pickle5 zero-copy between processes).
* **Shuffle over storage** — the executor stores one entry per
  *non-empty* shuffle bucket and nothing under the mapper's key, so a
  reducer reads (and spill moves) only its own buckets; the executor's
  bucket table records which were stored and the schema for the rest.

The service is also the honest memory meter behind ``SimulatedOOM``
(DESIGN.md § 6): *stored* chunks are spillable, but the **transient
working set of a running subtask is not** — a tree-reduce gathering a
huge aggregate, or a skewed shuffle reducer concatenating one hot key,
dies exactly as it would on a real worker, regardless of spill. Engines
differ only in partitioning policy, never in this meter.
"""
from __future__ import annotations

import enum
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.chunk import payload_nbytes


class StorageLevel(enum.Enum):
    MEMORY = "memory"
    DISK = "disk"


class SimulatedOOM(MemoryError):
    """A band's unspillable resident set exceeded its memory budget."""

    def __init__(self, band: str, resident: int, budget: int, detail: str = ""):
        self.band = band
        self.resident = resident
        self.budget = budget
        super().__init__(
            f"band {band} resident {resident >> 20} MiB exceeds budget "
            f"{budget >> 20} MiB {detail}"
        )


@dataclass
class _Entry:
    level: StorageLevel
    nbytes: int
    band: str
    payload: Any = None  # set when level is MEMORY
    path: Optional[str] = None  # set when level is DISK


@dataclass
class BandUsage:
    """Live accounting for one band (worker × NUMA node).

    ``resident`` counts memory-level stored chunks plus transient
    working sets; ``peak`` is the high-water mark reported by benchmarks.
    """

    resident: int = 0
    transient: int = 0
    peak: int = 0

    def note_peak(self) -> None:
        self.peak = max(self.peak, self.resident + self.transient)


class StorageService:
    """Key→payload store with per-band spill and metering."""

    def __init__(
        self,
        band_memory_limit: Optional[int] = None,
        spill_dir: Optional[str] = None,
        allow_spill: bool = True,
    ) -> None:
        self._entries: dict[str, _Entry] = {}
        # band → its memory-level keys, least recently put or read first
        self._lru: dict[str, dict[str, None]] = {}
        self.band_memory_limit = band_memory_limit
        self.allow_spill = allow_spill
        self._spill_dir = spill_dir
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self.bands: dict[str, BandUsage] = {}
        self.spill_count = 0

    # -- band metering -------------------------------------------------
    def band_usage(self, band: str) -> BandUsage:
        return self.bands.setdefault(band, BandUsage())

    def _rebalance(self, band: str, detail: str = "") -> None:
        """Spill this band's LRU memory chunks until under budget; if the
        remaining (unspillable transient) still exceeds it → OOM."""
        if self.band_memory_limit is None:
            return
        u = self.band_usage(band)
        u.note_peak()
        if u.resident + u.transient <= self.band_memory_limit:
            return
        if not self.allow_spill:
            raise SimulatedOOM(
                band, u.resident + u.transient, self.band_memory_limit,
                detail or "(no spill: object store full)",
            )
        lru = self._lru.get(band, {})
        while lru and u.resident + u.transient > self.band_memory_limit:
            key = next(iter(lru))
            entry = self._entries[key]
            self._spill_entry(key, entry)
            u.resident -= entry.nbytes
        if u.resident + u.transient > self.band_memory_limit:
            raise SimulatedOOM(
                band, u.resident + u.transient, self.band_memory_limit, detail
            )

    def charge_transient(self, band: str, nbytes: int) -> None:
        """Meter the working memory of a running subtask on ``band``;
        raises :class:`SimulatedOOM` when even spilling cannot make room.
        Pair with :meth:`release_transient`."""
        u = self.band_usage(band)
        u.transient += nbytes
        try:
            self._rebalance(band, "(transient working set)")
        except SimulatedOOM:
            u.transient -= nbytes  # the subtask never ran: undo its charge
            raise

    def release_transient(self, band: str, nbytes: int) -> None:
        u = self.band_usage(band)
        if nbytes > u.transient:
            raise AssertionError(
                f"band {band}: releasing {nbytes} transient bytes, "
                f"only {u.transient} charged"
            )
        u.transient -= nbytes

    # -- core put/get ---------------------------------------------------
    def put(self, key: str, payload: Any, band: str = "b0",
            nbytes: Optional[int] = None) -> int:
        """Store one chunk payload; returns its metered size in bytes.
        ``nbytes`` skips re-measuring when the caller already has it."""
        if key in self._entries:
            self.delete(key)
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        self._entries[key] = _Entry(
            level=StorageLevel.MEMORY, nbytes=nbytes, band=band, payload=payload
        )
        self._lru.setdefault(band, {})[key] = None
        self.band_usage(band).resident += nbytes
        self._rebalance(band)
        return nbytes

    def get(self, key: str) -> Any:
        entry = self._entries[key]
        lru = self._lru[entry.band]  # LRU touch
        lru.pop(key, None)
        lru[key] = None
        if entry.level is StorageLevel.DISK:
            with open(entry.path, "rb") as f:
                payload = pickle.load(f)
            os.unlink(entry.path)
            entry.payload = payload
            entry.path = None
            entry.level = StorageLevel.MEMORY
            self.band_usage(entry.band).resident += entry.nbytes
            self._rebalance(entry.band, "(spill re-load)")
        return entry.payload

    def has(self, key: str) -> bool:
        return key in self._entries

    def level_of(self, key: str) -> StorageLevel:
        return self._entries[key].level

    def nbytes_of(self, key: str) -> int:
        return self._entries[key].nbytes

    def band_of(self, key: str) -> str:
        return self._entries[key].band

    def delete(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.level is StorageLevel.MEMORY:
            del self._lru[entry.band][key]
            u = self.band_usage(entry.band)
            if entry.nbytes > u.resident:
                raise AssertionError(
                    f"band {entry.band}: deleting {key} of {entry.nbytes} "
                    f"bytes, only {u.resident} resident"
                )
            u.resident -= entry.nbytes
        elif entry.path and os.path.exists(entry.path):
            os.unlink(entry.path)

    def keys(self) -> list[str]:
        return list(self._entries)

    # -- spill ----------------------------------------------------------
    def _spill_entry(self, key: str, entry: _Entry) -> None:
        del self._lru[entry.band][key]
        path = self._spill_path(key)
        with open(path, "wb") as f:
            pickle.dump(entry.payload, f, protocol=pickle.HIGHEST_PROTOCOL)
        entry.payload = None
        entry.path = path
        entry.level = StorageLevel.DISK
        self.spill_count += 1

    def _spill_path(self, key: str) -> str:
        if self._spill_dir is None:
            if self._tmp is None:
                self._tmp = tempfile.TemporaryDirectory(prefix="repro-spill-")
            self._spill_dir = self._tmp.name
        return os.path.join(self._spill_dir, f"{key}.pkl")

    def close(self) -> None:
        for key in list(self._entries):
            self.delete(key)
        self.bands.clear()
        self._lru.clear()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
            self._spill_dir = None
