"""Content-addressed result cache: the heart of the service's warm path.

Every :class:`~repro.apps.common.AppResult` in this repository is a pure
function of its :func:`~repro.service.jobs.job_key`, so caching them is
not an approximation — a hit *is* the answer.  This generalises
:mod:`repro.perf.buildcache` (which memoises graph builds) to whole
serialized run results, and adds the two things a long-running service
needs that a process-local memo does not:

* **bounded memory** — entries are charged their pickled byte size
  against a budget and evicted LRU; a hot cell stays resident while a
  one-off sweep ages out;
* **integrity** — every entry stores a SHA-256 checksum of its payload
  bytes plus the run's :func:`~repro.service.jobs.result_digest`.  A
  corrupted entry (bit rot, a buggy writer, the fault injector's
  ``poison``) is *detected on read*, counted, evicted and transparently
  recomputed — a poisoned cache can cost latency, never a wrong answer.

The cache is thread-safe (one lock around the index; serialisation
happens outside it).  The broker itself touches it only from its event
loop; engine runs happen in worker processes and never see it.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.apps.common import AppResult
from repro.service.jobs import result_digest

__all__ = ["ResultCache", "CacheStats", "DEFAULT_CACHE_BYTES"]

DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of cache effectiveness and integrity counters."""

    hits: int
    misses: int
    evictions: int
    poisons_detected: int
    entries: int
    bytes: int
    max_bytes: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    payload: bytes
    checksum: str  # SHA-256 of payload bytes (any flipped bit is caught)
    digest: str  # result_digest of the stored run (semantic identity)


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class ResultCache:
    """LRU, byte-budgeted, integrity-checked store of serialized results."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._poisons = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> AppResult | None:
        """The cached result for ``key``, or ``None`` (miss / poisoned).

        Verifies the payload checksum, deserialises, and re-derives the
        result digest before trusting the entry; any mismatch evicts the
        entry, bumps ``poisons_detected`` and reports a miss so the
        caller recomputes.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
        if _checksum(entry.payload) != entry.checksum:
            self._discard_poisoned(key, entry)
            return None
        try:
            result = pickle.loads(entry.payload)
        except Exception:
            # checksum matched but the bytes never were a valid pickle:
            # a buggy writer rather than bit rot — same recovery path
            self._discard_poisoned(key, entry)
            return None
        if not isinstance(result, AppResult) or result_digest(result) != entry.digest:
            self._discard_poisoned(key, entry)
            return None
        with self._lock:
            self._hits += 1
        return result

    def put(self, key: str, result: AppResult) -> None:
        """Store ``result`` under ``key``, evicting LRU past the budget.

        A result bigger than the whole budget is simply not cached (the
        service still returns it; it just never gets a warm path).
        """
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self.max_bytes:
            return
        entry = _Entry(
            payload=payload, checksum=_checksum(payload), digest=result_digest(result)
        )
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old.payload)
            self._entries[key] = entry
            self._bytes += len(payload)
            while self._bytes > self.max_bytes and self._entries:
                _, victim = self._entries.popitem(last=False)
                self._bytes -= len(victim.payload)
                self._evictions += 1

    def _discard_poisoned(self, key: str, entry: _Entry) -> None:
        with self._lock:
            # only evict if the slot still holds the entry we inspected
            if self._entries.get(key) is entry:
                del self._entries[key]
                self._bytes -= len(entry.payload)
            self._poisons += 1
            self._misses += 1

    # ------------------------------------------------------------------
    def corrupt(self, key: str, *, offset: int = -1) -> bool:
        """Flip one payload byte of ``key`` in place (fault injection).

        Deliberately leaves the stored checksum stale, simulating silent
        corruption; returns ``False`` when the key is absent.  Test and
        :class:`~repro.service.faults.FaultInjector` hook only.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            payload = bytearray(entry.payload)
            payload[offset] ^= 0xFF
            entry.payload = bytes(payload)
            return True

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                poisons_detected=self._poisons,
                entries=len(self._entries),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
            )
