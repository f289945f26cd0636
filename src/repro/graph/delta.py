"""Streaming graph mutation: a batched edit overlay over immutable CSR.

The arXiv version of Atos frames the scheduler as a framework for
*dynamic* irregular computations: the graph mutates in batches and the
worklist re-seeds from the affected vertices instead of restarting the
whole frontier.  :class:`Csr` is deliberately immutable (the simulator
relies on the topology being frozen *within* a run), so mutation lives in
a separate overlay:

* :class:`EditBatch` — one batch of edge inserts and deletes, as plain
  ``(K, 2)`` arrays.  Batches may contain no-op edits (inserting an edge
  that already exists, deleting one that does not, self-loops, duplicate
  rows); :meth:`DeltaCsr.apply` filters them and reports back only the
  *effective* changes in an :class:`AppliedBatch`, which is what the
  incremental kernels' ``rebase`` hooks consume (a no-op insert must not
  perturb a PageRank residue).
* :class:`DeltaCsr` — the mutable overlay: an epoch counter, the current
  edge set (kept as sorted unique ``src * n + dst`` keys, so a batch is
  resolved by ``searchsorted`` and spliced in with one ``np.delete`` and
  one ``np.insert``: no set pass over the whole edge set), and
  :meth:`DeltaCsr.materialize`, which rebuilds a frozen :class:`Csr`
  snapshot through the keyed build cache.  Snapshot cache keys carry the
  **epoch tag and an edit digest** (:func:`repro.perf.buildcache.edit_key`)
  so a mutated graph can never alias its parent or a sibling history —
  keying on generator config alone would hand epoch 1 the epoch-0 arrays.
* :class:`EditScript` — a seeded generator of random edit batches
  (deterministic per seed), the replay input of the differential harness,
  the fuzzer and the ``--edits`` CLI flag.  Scripts are symmetric by
  default: every insert/delete is applied in both directions, keeping the
  graph symmetric for the apps whose oracles assume it (CC, k-core).

Spec strings: ``"3x32@7"`` means 3 epochs of 32 edit pairs seeded with 7
(see :func:`parse_edits`); an optional ``d<fraction>`` suffix sets the
delete share, e.g. ``"3x32@7d0.5"``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import Csr

__all__ = [
    "EditBatch",
    "AppliedBatch",
    "DeltaCsr",
    "EditScript",
    "parse_edits",
]


def _as_edge_array(edges: object) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (K, 2), got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class EditBatch:
    """One requested batch of edge mutations (may contain no-ops).

    ``insert`` and ``delete`` are ``(K, 2)`` int64 arrays of ``(src, dst)``
    pairs.  The batch is a *request*: rows may duplicate each other, name
    edges that already exist (insert) or never did (delete), or be
    self-loops — :meth:`DeltaCsr.apply` resolves all of that.
    """

    insert: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    delete: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self) -> None:
        object.__setattr__(self, "insert", _as_edge_array(self.insert))
        object.__setattr__(self, "delete", _as_edge_array(self.delete))

    def digest(self) -> str:
        """Short content hash of the batch (stable across processes)."""
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.insert).tobytes())
        h.update(b"|")
        h.update(np.ascontiguousarray(self.delete).tobytes())
        return h.hexdigest()[:16]

    def symmetrized(self) -> "EditBatch":
        """The batch with every edit applied in both directions."""
        ins, dele = self.insert, self.delete
        return EditBatch(
            insert=np.concatenate([ins, ins[:, ::-1]], axis=0),
            delete=np.concatenate([dele, dele[:, ::-1]], axis=0),
        )


@dataclass(frozen=True)
class AppliedBatch:
    """The *effective* mutation one :meth:`DeltaCsr.apply` performed.

    ``inserted`` holds only edges that were genuinely absent before the
    batch; ``deleted`` only edges that were genuinely present.  No-op
    edits (duplicates, re-inserts, phantom deletes) are filtered out, so
    incremental kernels can trust every row to be a real topology change.
    """

    epoch: int
    inserted: np.ndarray
    deleted: np.ndarray

    @property
    def touched(self) -> np.ndarray:
        """Sorted unique vertex ids appearing in any effective edit."""
        both = np.concatenate([self.inserted.ravel(), self.deleted.ravel()])
        return np.unique(both)

    @property
    def is_noop(self) -> bool:
        return self.inserted.size == 0 and self.deleted.size == 0


class DeltaCsr:
    """A mutable edge-set overlay over an immutable base :class:`Csr`.

    The overlay tracks the current edge set as sorted scalar keys
    (``src * n + dst``); :meth:`apply` advances the epoch counter and
    :meth:`materialize` rebuilds a frozen CSR snapshot, memoised through
    :func:`repro.perf.buildcache.cached_graph` under an epoch-tagged key.
    The vertex set is fixed: edits mutate edges only.
    """

    def __init__(self, base: Csr) -> None:
        self.base = base
        self.epoch = 0
        n = base.num_vertices
        self._n = n
        edges = base.edge_array()
        self._keys = _sorted_unique(edges[:, 0] * n + edges[:, 1])
        self.log: list[AppliedBatch] = []
        #: rolling content hash of the applied-edit history (cache key part);
        #: seeded with the base's *topology*, not just its name — two graphs
        #: that share a name but not an edge set must not share snapshots
        h = hashlib.sha256(f"{base.name}:{n}:".encode())
        h.update(np.ascontiguousarray(self._keys).tobytes())
        self._history = h.hexdigest()[:16]

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return int(self._keys.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaCsr(base={self.base.name!r}, epoch={self.epoch}, "
            f"edges={self.num_edges})"
        )

    def _encode(self, edges: np.ndarray) -> np.ndarray:
        if edges.size and (edges.min() < 0 or edges.max() >= self._n):
            raise ValueError(f"edit endpoints out of range [0, {self._n})")
        return edges[:, 0] * self._n + edges[:, 1]

    def has_edge(self, src: int, dst: int) -> bool:
        """Membership test against the current (post-edit) edge set."""
        key = np.int64(src) * self._n + np.int64(dst)
        idx = np.searchsorted(self._keys, key)
        return bool(idx < self._keys.size and self._keys[idx] == key)

    # ------------------------------------------------------------------
    def apply(self, batch: EditBatch) -> AppliedBatch:
        """Apply one edit batch; return the effective changes.

        Deletes are resolved against the pre-batch edge set, inserts
        against the post-delete set (so a batch that deletes and
        re-inserts the same edge nets out to a no-op of both kinds being
        effective — the edge leaves and re-enters, which incremental
        kernels handle like any other churn).
        """
        del_keys = _sorted_unique(self._encode(batch.delete))
        ins_keys = _sorted_unique(self._encode(batch.insert))
        # effective deletes: requested & present
        pos = np.searchsorted(self._keys, del_keys)
        present = _found(self._keys, pos, del_keys)
        eff_del = del_keys[present]
        keys = np.delete(self._keys, pos[present])
        # effective inserts: requested & absent after the deletes
        pos = np.searchsorted(keys, ins_keys)
        absent = ~_found(keys, pos, ins_keys)
        eff_ins = ins_keys[absent]
        self._keys = np.insert(keys, pos[absent], eff_ins)
        self.epoch += 1
        applied = AppliedBatch(
            epoch=self.epoch,
            inserted=self._decode(eff_ins),
            deleted=self._decode(eff_del),
        )
        self.log.append(applied)
        self._history = hashlib.sha256(
            (self._history + ":" + batch.digest()).encode()
        ).hexdigest()[:16]
        return applied

    def _decode(self, keys: np.ndarray) -> np.ndarray:
        out = np.empty((keys.size, 2), dtype=np.int64)
        out[:, 0] = keys // self._n
        out[:, 1] = keys % self._n
        return out

    def edge_array(self) -> np.ndarray:
        """Current edge set as a sorted ``(E, 2)`` array."""
        return self._decode(self._keys)

    # ------------------------------------------------------------------
    def materialize(self) -> Csr:
        """Frozen CSR snapshot of the current epoch (build-cache shared).

        The cache key is the base graph's identity plus the **epoch
        counter and the rolling edit-history digest**
        (:func:`repro.perf.buildcache.edit_key`): two overlays that share
        a base but applied different histories — or the same overlay at
        different epochs — can never alias, while replaying the same
        script twice shares one build.
        """
        from repro.perf.buildcache import cached_graph, edit_key

        if self.epoch == 0:
            return self.base
        key = edit_key(
            ("delta", self.base.name, self._n), self.epoch, self._history
        )
        name = f"{self.base.name}+e{self.epoch}"
        edges = self.edge_array()
        return cached_graph(
            key,
            lambda: Csr(*_csr_arrays(self._n, edges), name=name),
        )


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct ``keys``: a sort, then drop adjacent repeats.

    Same result as ``np.unique``, which numpy >= 2.3 computes through a
    hash table — over 20x slower than a sort on the already sorted keys
    of a CSR with ordered rows.
    """
    keys = np.sort(keys)
    if keys.size > 1:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def _found(keys: np.ndarray, pos: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Mask of ``probes`` present in sorted ``keys``, given their ``searchsorted`` slots."""
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == probes[hit]
    return hit


def _csr_arrays(n: int, sorted_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """indptr/indices from an already sorted, deduplicated edge array."""
    counts = np.bincount(sorted_edges[:, 0], minlength=n).astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, sorted_edges[:, 1].copy()


# ---------------------------------------------------------------------------
# Seeded edit-script generation
# ---------------------------------------------------------------------------

class EditScript:
    """Deterministic random edit batches for replay / fuzzing.

    Each of the ``epochs`` batches holds ``batch_size`` edit pairs, a
    ``p_delete`` share of which are deletes sampled from the *current*
    edge set (the script tracks its own overlay while generating, so late
    batches can delete edges inserted by early ones) and the rest inserts
    of uniformly random pairs — which occasionally duplicate existing
    edges or propose self-loops, deliberately: no-op edits are part of
    the tested surface.  ``symmetric=True`` (default) mirrors every edit.
    """

    def __init__(
        self,
        graph: Csr,
        *,
        seed: int,
        epochs: int = 3,
        batch_size: int = 32,
        p_delete: float = 0.4,
        symmetric: bool = True,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= p_delete <= 1.0):
            raise ValueError("p_delete must be in [0, 1]")
        self.graph = graph
        self.seed = int(seed)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.p_delete = float(p_delete)
        self.symmetric = bool(symmetric)
        self._batches: list[EditBatch] | None = None

    @property
    def spec(self) -> str:
        """The ``ExB@S`` spec string that reproduces this script."""
        tail = "" if self.p_delete == 0.4 else f"d{self.p_delete:g}"
        return f"{self.epochs}x{self.batch_size}@{self.seed}{tail}"

    def batches(self) -> list[EditBatch]:
        """The script's batches (generated once, then cached)."""
        if self._batches is None:
            self._batches = self._generate()
        return self._batches

    def __iter__(self):
        return iter(self.batches())

    def __len__(self) -> int:
        return self.epochs

    def _generate(self) -> list[EditBatch]:
        rng = np.random.default_rng(self.seed)
        n = self.graph.num_vertices
        shadow = DeltaCsr(self.graph)
        out: list[EditBatch] = []
        for _ in range(self.epochs):
            n_del = int(round(self.batch_size * self.p_delete))
            n_ins = self.batch_size - n_del
            current = shadow.edge_array()
            if self.symmetric and current.size:
                # sample deletes from one orientation only; the mirror is
                # added by symmetrized() below
                current = current[current[:, 0] <= current[:, 1]]
            if current.size and n_del:
                pick = rng.integers(0, current.shape[0], size=n_del)
                deletes = current[pick]
            else:
                deletes = np.empty((0, 2), dtype=np.int64)
            inserts = rng.integers(0, n, size=(n_ins, 2), dtype=np.int64)
            batch = EditBatch(insert=inserts, delete=deletes)
            if self.symmetric:
                batch = batch.symmetrized()
            shadow.apply(batch)
            out.append(batch)
        return out

    def replay(self, overlay: DeltaCsr | None = None):
        """Yield ``(applied, snapshot)`` per batch over a fresh overlay."""
        delta = overlay if overlay is not None else DeltaCsr(self.graph)
        for batch in self.batches():
            applied = delta.apply(batch)
            yield applied, delta.materialize()


_SPEC_RE = re.compile(
    r"^(?P<epochs>\d+)x(?P<batch>\d+)@(?P<seed>\d+)(?:d(?P<pdel>0?\.\d+|0|1|1\.0))?$"
)


def parse_edits(spec: str, graph: Csr, *, symmetric: bool = True) -> EditScript:
    """Parse an ``ExB@S[dP]`` spec string into an :class:`EditScript`.

    ``"3x32@7"`` — 3 epochs, 32 edit pairs each, seed 7, default 40%
    deletes; ``"5x16@2d0.5"`` overrides the delete share.  Raises
    ``ValueError`` with the format reminder on anything else.
    """
    m = _SPEC_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"bad edit spec {spec!r}; expected EPOCHSxBATCH@SEED[dFRAC], e.g. 3x32@7"
        )
    kwargs = {}
    if m.group("pdel") is not None:
        kwargs["p_delete"] = float(m.group("pdel"))
    return EditScript(
        graph,
        seed=int(m.group("seed")),
        epochs=int(m.group("epochs")),
        batch_size=int(m.group("batch")),
        symmetric=symmetric,
        **kwargs,
    )
