"""Keyed build cache for deterministic graph construction.

Graph builds (R-MAT generation, crawl-order relabeling, road meshes) are
pure functions of their parameters, and a sweep re-requests the same
handful of (dataset, size) pairs hundreds of times — once per Lab, once
per worker process, once per benchmark repeat.  This module memoises the
built :class:`~repro.graph.csr.Csr` process-wide.

Sharing is safe because ``Csr`` freezes its arrays (``writeable=False`` in
``__post_init__``): a caller that tries to mutate a cached graph gets a
``ValueError`` from numpy instead of silently poisoning every later
borrower.  ``tests/test_perf.py`` property-tests both directions — cached
builds equal fresh builds, and mutation attempts raise.

Keys must be hashable tuples of primitives.  Builders whose parameters
are not hashable (e.g. a live ``numpy.random.Generator`` seed) should
bypass the cache entirely rather than guess a key.

Mutable-graph snapshots (:class:`repro.graph.delta.DeltaCsr`) must NOT
key on generator config alone: a mutated graph built from the same
config as its parent would alias the parent's cached arrays, and every
later epoch would silently read epoch-0 topology.  :func:`edit_key`
folds the edit epoch and an edit-history digest into the key, making the
aliasing impossible by construction (regression-tested in
``tests/test_dynamic.py``).

Base graphs are few and reused forever, so they are never evicted.
Edited snapshots are not: every fresh edit script makes new ones, and a
long-running service sees a fresh script per dynamic job.  They are
held in a separate LRU of :data:`EDITED_SNAPSHOT_LIMIT` entries, enough
for every epoch of one replay to be built once and shared by the
replay's own re-reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Callable, Hashable

from repro.graph.csr import Csr

__all__ = [
    "EDITED_SNAPSHOT_LIMIT",
    "cached_graph",
    "cache_info",
    "cache_clear",
    "edit_key",
    "CacheInfo",
]

#: edited snapshots retained (least recently used evicted first)
EDITED_SNAPSHOT_LIMIT = 32
#: the tag :func:`edit_key` puts third from the end of every key it makes
_EDIT_TAG = "epoch"

_CACHE: dict[Hashable, Csr] = {}
_EDITED: OrderedDict[Hashable, Csr] = OrderedDict()
_LOCK = Lock()
_HITS = 0
_MISSES = 0


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    size: int  # base graphs plus edited snapshots


def cached_graph(key: Hashable, builder: Callable[[], Csr]) -> Csr:
    """Return the graph cached under ``key``, building it on first use.

    The returned instance is shared: callers get the same read-only
    ``Csr`` object, not a copy (copy-on-return would forfeit most of the
    win — graph builds dominate Lab startup).  Immutability is enforced
    by ``Csr`` itself.  Keys made by :func:`edit_key` go to the bounded
    edited-snapshot LRU; every other key is kept for the process's life.
    """
    global _HITS, _MISSES
    edited = _is_edit_key(key)
    store = _EDITED if edited else _CACHE
    with _LOCK:
        g = store.get(key)
        if g is not None:
            _HITS += 1
            if edited:
                _EDITED.move_to_end(key)
            return g
    built = builder()
    if not isinstance(built, Csr):
        raise TypeError(f"builder for {key!r} returned {type(built).__name__}, expected Csr")
    with _LOCK:
        # a racing builder may have stored first; keep the stored instance
        # so every caller shares one object
        g = store.get(key)
        if g is not None:
            _HITS += 1
            return g
        _MISSES += 1
        store[key] = built
        if edited and len(_EDITED) > EDITED_SNAPSHOT_LIMIT:
            _EDITED.popitem(last=False)
    return built


def _is_edit_key(key: Hashable) -> bool:
    return isinstance(key, tuple) and len(key) >= 3 and key[-3] == _EDIT_TAG


def edit_key(base_key: tuple, epoch: int, digest: str) -> tuple:
    """Cache key for an edited snapshot of the graph keyed by ``base_key``.

    ``epoch`` alone is not enough — two different edit scripts reach
    epoch 2 of the same base with different topologies — so the rolling
    edit-history ``digest`` is folded in too.  ``epoch`` stays in the key
    for debuggability (``cache_info`` dumps are readable) and as a belt
    against digest-construction mistakes.
    """
    if epoch <= 0:
        raise ValueError(f"edit_key is for mutated snapshots; got epoch={epoch}")
    return (*base_key, _EDIT_TAG, int(epoch), str(digest))


def cache_info() -> CacheInfo:
    """Hits, misses and current entry count."""
    with _LOCK:
        return CacheInfo(hits=_HITS, misses=_MISSES, size=len(_CACHE) + len(_EDITED))


def cache_clear() -> None:
    """Drop every cached graph and reset the counters (tests)."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _EDITED.clear()
        _HITS = 0
        _MISSES = 0
