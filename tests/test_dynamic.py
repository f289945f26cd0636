"""Dynamic graphs and incremental apps: the differential edit-replay suite.

Four layers, mirroring the dynamic stack:

1. **Delta overlay** (:mod:`repro.graph.delta`) — hypothesis-generated
   edit scripts (inserts, deletes, duplicate no-ops, phantom deletes,
   self-loops) must materialize to exactly the CSR a from-scratch build
   of the tracked edge set produces, and every :class:`AppliedBatch` must
   report only *effective* changes.
2. **Build cache** (:func:`repro.perf.buildcache.edit_key`) — the
   regression the epoch tag exists for: an un-tagged key aliases a
   mutated snapshot to its parent by construction; the tagged key cannot.
3. **Differential oracle** — incremental BFS/CC/PageRank replayed over
   edit scripts must equal a from-scratch recompute on every epoch's
   snapshot: exact equality for BFS depths and CC labels, fixpoint
   closeness for PageRank.  The matrix runs five seeded scripts across
   three epochs on both engine backends and pins whole-replay digest
   bit-identity between the backends.
4. **Fuzzer** (:func:`repro.check.fuzz.fuzz_dynamic`) — the differential
   property must survive schedule perturbation, and a lying validator
   must be *able* to fail (the harness detects what it claims to).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bfs import UNREACHED, reference_depths
from repro.apps.cc import reference_components
from repro.apps.common import get_adapter, run_app
from repro.apps.dynamic import replay_app
from repro.apps.pagerank import DEFAULT_EPSILON, DEFAULT_LAMBDA, reference_ranks
from repro.check.fuzz import fuzz_dynamic
from repro.check.oracles import ValidationReport, validate
from repro.core.config import CONFIGS
from repro.graph.csr import Csr, from_edges
from repro.graph.delta import DeltaCsr, EditBatch, EditScript, parse_edits
from repro.graph.generators import rmat
from repro.obs import Collector
from repro.perf.buildcache import EDITED_SNAPSHOT_LIMIT, cache_info, cached_graph, edit_key


@pytest.fixture(scope="module")
def graph() -> Csr:
    g = rmat(8, edge_factor=6, seed=7, name="rmat8")
    return g if g.is_symmetric() else g.symmetrize()


# ---------------------------------------------------------------------------
# 1. Delta overlay: materialization == from-scratch build (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def base_and_batches(draw, max_vertices=24, max_edges=80, max_batches=4):
    """A small base edge list plus a sequence of messy edit batches.

    Batches deliberately include self-loops, duplicate rows, re-inserts
    of existing edges and deletes of absent edges — the no-op surface
    :meth:`DeltaCsr.apply` must filter.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    base = draw(st.lists(pair, max_size=max_edges))
    batches = draw(
        st.lists(
            st.tuples(st.lists(pair, max_size=12), st.lists(pair, max_size=12)),
            min_size=1,
            max_size=max_batches,
        )
    )
    return n, base, batches


@given(base_and_batches())
@settings(max_examples=60, deadline=None)
def test_delta_materialization_equals_from_scratch_build(case):
    n, base_edges, batches = case
    base = from_edges(n, base_edges, name="hyp-base")
    overlay = DeltaCsr(base)
    model = set(map(tuple, base.edge_array().tolist()))
    for k, (ins, dele) in enumerate(batches, start=1):
        pre = set(model)
        applied = overlay.apply(EditBatch(insert=ins, delete=dele))
        model -= set(dele)
        model |= set(ins)
        assert overlay.epoch == k == applied.epoch
        # effectiveness: reported deletes were present, inserts absent
        for u, v in applied.deleted.tolist():
            assert (u, v) in pre and (u, v) not in model or (u, v) in model
        deleted = set(map(tuple, applied.deleted.tolist()))
        inserted = set(map(tuple, applied.inserted.tolist()))
        assert deleted <= pre
        assert inserted.isdisjoint(pre - set(map(tuple, dele)))
        # the overlay's edge set tracks the python model exactly
        assert set(map(tuple, overlay.edge_array().tolist())) == model
        # and the frozen snapshot equals a from-scratch build of it
        snap = overlay.materialize()
        ref = from_edges(n, sorted(model), name="hyp-ref")
        assert np.array_equal(snap.indptr, ref.indptr)
        assert np.array_equal(snap.indices, ref.indices)
        assert snap.name == f"hyp-base+e{k}"


@given(base_and_batches(max_batches=2))
@settings(max_examples=30, deadline=None)
def test_applied_batch_rows_are_all_effective(case):
    """No row of an AppliedBatch may be a no-op against the pre-state."""
    n, base_edges, batches = case
    base = from_edges(n, base_edges, name="hyp-eff")
    overlay = DeltaCsr(base)
    for ins, dele in batches:
        pre = set(map(tuple, overlay.edge_array().tolist()))
        applied = overlay.apply(EditBatch(insert=ins, delete=dele))
        for u, v in applied.deleted.tolist():
            assert (u, v) in pre, "deleted an edge that was not present"
        after_del = pre - set(map(tuple, applied.deleted.tolist()))
        for u, v in applied.inserted.tolist():
            assert (u, v) not in after_del, "inserted an edge already present"
        assert applied.inserted.shape == np.unique(applied.inserted, axis=0).shape


def test_noop_batch_is_reported_as_noop(graph):
    overlay = DeltaCsr(graph)
    e = graph.edge_array()
    applied = overlay.apply(
        EditBatch(insert=e[:4], delete=[(0, 0)] if not overlay.has_edge(0, 0) else [])
    )
    assert applied.is_noop
    assert overlay.epoch == 1
    # a no-op epoch still gets its own (identical-topology) snapshot
    snap = overlay.materialize()
    assert np.array_equal(snap.indptr, graph.indptr)
    assert np.array_equal(snap.indices, graph.indices)


def test_delete_then_reinsert_in_one_batch_is_churn(graph):
    """apply() resolves deletes before inserts: the edge leaves and returns."""
    overlay = DeltaCsr(graph)
    u, v = graph.edge_array()[0].tolist()
    applied = overlay.apply(EditBatch(insert=[(u, v)], delete=[(u, v)]))
    assert (u, v) in map(tuple, applied.deleted.tolist())
    assert (u, v) in map(tuple, applied.inserted.tolist())
    assert overlay.has_edge(u, v)


def test_edit_script_is_deterministic_and_parseable(graph):
    s1 = EditScript(graph, seed=9, epochs=4, batch_size=16)
    s2 = parse_edits(s1.spec, graph)
    assert s1.spec == "4x16@9"
    for b1, b2 in zip(s1.batches(), s2.batches()):
        assert np.array_equal(b1.insert, b2.insert)
        assert np.array_equal(b1.delete, b2.delete)


def test_parse_edits_rejects_garbage(graph):
    for bad in ("3x@7", "x32@7", "3x32", "3x32@7d2", "banana"):
        with pytest.raises(ValueError, match="edit spec"):
            parse_edits(bad, graph)


def test_symmetric_script_keeps_snapshots_symmetric(graph):
    script = EditScript(graph, seed=3, epochs=3, batch_size=24)
    for _, snap in script.replay():
        assert snap.is_symmetric()


# ---------------------------------------------------------------------------
# 2. Build cache: the epoch tag prevents parent/sibling aliasing
# ---------------------------------------------------------------------------

class TestEditKeyRegression:
    def test_untagged_key_aliases_by_construction(self, graph):
        """The failure mode edit_key exists for, demonstrated directly.

        Keying a mutated snapshot on generator config alone hands every
        epoch the first build stored under that config — the second
        builder never runs and the caller silently reads stale topology.
        """
        naive_key = ("alias-demo", graph.name, graph.num_vertices)
        first = cached_graph(naive_key, lambda: from_edges(2, [(0, 1)], name="epoch1"))
        second = cached_graph(naive_key, lambda: from_edges(2, [(1, 0)], name="epoch2"))
        assert second is first, "same key must alias -- that is the bug edit_key fixes"
        assert second.name == "epoch1"  # epoch-2 caller got epoch-1 arrays

    def test_sibling_histories_never_alias(self, graph):
        """Two overlays, same base, same epoch count, different edits."""
        o1, o2 = DeltaCsr(graph), DeltaCsr(graph)
        e = graph.edge_array()
        o1.apply(EditBatch(delete=e[:2]))
        o2.apply(EditBatch(delete=e[2:4]))
        s1, s2 = o1.materialize(), o2.materialize()
        assert s1 is not s2
        assert not np.array_equal(s1.indptr, s2.indptr) or not np.array_equal(
            s1.indices, s2.indices
        )
        assert np.array_equal(s1.edge_array(), o1.edge_array())
        assert np.array_equal(s2.edge_array(), o2.edge_array())

    def test_epochs_of_one_overlay_never_alias(self, graph):
        overlay = DeltaCsr(graph)
        e = graph.edge_array()
        overlay.apply(EditBatch(delete=e[:2]))
        s1 = overlay.materialize()
        overlay.apply(EditBatch(delete=e[2:4]))
        s2 = overlay.materialize()
        assert s1 is not s2
        assert s1.num_edges != s2.num_edges

    def test_identical_replays_share_one_build(self, graph):
        script = EditScript(graph, seed=21, epochs=2, batch_size=8)
        first = [snap for _, snap in script.replay()]
        second = [snap for _, snap in script.replay()]
        for a, b in zip(first, second):
            assert a is b, "same history must hit the cache, not rebuild"

    def test_fresh_scripts_keep_the_build_cache_bounded(self, graph):
        """A long-running service replays a fresh script per dynamic job;
        the edited snapshots they leave must not pile up without end."""
        bases = cache_info().size
        for seed in range(200):
            for _ in EditScript(graph, seed=1000 + seed, epochs=2, batch_size=4).replay():
                pass
        assert cache_info().size <= bases + EDITED_SNAPSHOT_LIMIT
        # the latest script's snapshots survived and are still shared
        script = EditScript(graph, seed=1199, epochs=2, batch_size=4)
        first = [snap for _, snap in script.replay()]
        again = [snap for _, snap in script.replay()]
        assert all(a is b for a, b in zip(first, again))

    def test_epoch_zero_materializes_the_base_itself(self, graph):
        assert DeltaCsr(graph).materialize() is graph

    def test_edit_key_rejects_epoch_zero(self):
        with pytest.raises(ValueError, match="epoch=0"):
            edit_key(("delta", "g", 4), 0, "abcd")
        key = edit_key(("delta", "g", 4), 2, "abcd")
        assert key == ("delta", "g", 4, "epoch", 2, "abcd")


# ---------------------------------------------------------------------------
# 3. Differential oracle: incremental == from-scratch on every epoch
# ---------------------------------------------------------------------------

# five seeded scripts (the acceptance floor) over three epochs each
SCRIPTS = ["3x24@1", "3x24@2", "3x24@3", "3x24@4", "3x24@5"]
BACKENDS = ("event", "batched")


@pytest.mark.parametrize("edits", SCRIPTS)
def test_incremental_bfs_equals_recompute_every_epoch(graph, edits):
    dres = replay_app("bfs-inc", graph, CONFIGS["persist-CTA"], edits, source=0)
    assert len(dres.epochs) == 4  # epoch 0 + three edit epochs
    for e in dres.epochs:
        ref = reference_depths(e.graph, 0)
        assert np.array_equal(e.result.output, ref), f"epoch {e.epoch} diverged"


@pytest.mark.parametrize("edits", SCRIPTS)
def test_incremental_cc_equals_recompute_every_epoch(graph, edits):
    dres = replay_app("cc-inc", graph, CONFIGS["persist-CTA"], edits)
    for e in dres.epochs:
        ref = reference_components(e.graph)
        assert np.array_equal(e.result.output, ref), f"epoch {e.epoch} diverged"


@pytest.mark.parametrize("edits", SCRIPTS)
def test_incremental_pagerank_close_to_recompute_every_epoch(graph, edits):
    dres = replay_app("pagerank-inc", graph, CONFIGS["persist-CTA"], edits)
    n = graph.num_vertices
    tol = n * DEFAULT_EPSILON / (1.0 - DEFAULT_LAMBDA) + 1e-9
    for e in dres.epochs:
        ref = reference_ranks(e.graph)
        gap = float(np.abs(e.result.output - ref).max())
        assert gap <= tol, f"epoch {e.epoch}: |rank - fixpoint| = {gap:.3e} > {tol:.3e}"
        # and the kernel really converged: two-sided residual under epsilon
        assert e.result.extra["residue_left"] <= DEFAULT_EPSILON + 1e-9


@pytest.mark.parametrize("app,params", [
    ("bfs-inc", {"source": 0}), ("cc-inc", {}), ("pagerank-inc", {}),
])
@pytest.mark.parametrize("edits", SCRIPTS)
def test_replay_digest_bit_identical_across_backends(graph, app, params, edits):
    """One digest pins the whole replay; backends may not move a byte."""
    digests = {}
    for backend in BACKENDS:
        sink = Collector()
        config = CONFIGS["persist-CTA"].with_overrides(backend=backend)
        dres = replay_app(app, graph, config, edits, sink=sink, validate=True, **params)
        digests[backend] = sink.digest()
        assert len(dres.epochs) == 4
    assert digests["event"] == digests["batched"]


def test_incremental_does_less_work_than_epoch_zero_bfs(graph):
    """The point of the exercise: repairs are cheaper than recomputes."""
    dres = replay_app("bfs-inc", graph, CONFIGS["persist-CTA"], "3x24@7", source=0)
    full = dres.epochs[0].result.work_units
    repairs = [e.result.work_units for e in dres.epochs[1:]]
    assert all(w < full for w in repairs), (full, repairs)


def test_replay_rejects_static_app(graph):
    with pytest.raises(ValueError, match="not a dynamic adapter"):
        replay_app("bfs", graph, CONFIGS["persist-CTA"], "2x8@1", source=0)


def test_replay_rejects_foreign_script(graph):
    other = rmat(6, edge_factor=4, seed=1, name="other").symmetrize()
    script = EditScript(other, seed=1, epochs=2, batch_size=8)
    with pytest.raises(ValueError, match="different graph"):
        replay_app("bfs-inc", graph, CONFIGS["persist-CTA"], script, source=0)


def test_dynamic_adapters_are_registered_but_skipped_statically():
    from repro.apps.common import app_names
    from repro.perf.bench import bench_cells

    names = app_names()
    for app in ("bfs-inc", "cc-inc", "pagerank-inc"):
        assert app in names
        assert get_adapter(app).dynamic
    bench_apps = {c.app for c in bench_cells()}
    assert bench_apps.isdisjoint({"bfs-inc", "cc-inc", "pagerank-inc"})


def test_per_epoch_oracles_registered():
    for app in ("bfs-inc", "cc-inc", "pagerank-inc"):
        from repro.check.oracles import oracle_names

        assert app in oracle_names()


# ---------------------------------------------------------------------------
# 4. Fuzzer: differential property under schedule perturbation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_fuzz_dynamic_clean_on_both_backends(graph, backend):
    config = CONFIGS["discrete-CTA"].with_overrides(backend=backend)
    report = fuzz_dynamic("bfs-inc", graph, config, "3x24@7", seeds=3, source=0)
    report.assert_clean()
    # perturbation shapes the schedule, never the per-epoch check count
    counts = {len(r.oracle.checks) for r in report.runs}
    assert len(counts) == 1


def test_fuzz_dynamic_detects_a_lying_validator(graph):
    """The harness must be able to fail: a validator that always rejects."""
    def reject(app, g, result, **params):
        rep = ValidationReport(app=app)
        rep.add("always-wrong", False, "planted failure")
        return rep

    report = fuzz_dynamic(
        "cc-inc", graph, CONFIGS["persist-CTA"], "2x8@1", seeds=2, validator=reject
    )
    assert not report.ok
    assert report.failed_seeds == [0, 1]
    with pytest.raises(Exception, match="always-wrong"):
        report.assert_clean()


def test_fuzz_dynamic_rejects_static_app(graph):
    with pytest.raises(ValueError, match="not dynamic"):
        fuzz_dynamic("pagerank", graph, CONFIGS["persist-CTA"], "2x8@1", seeds=1)


def test_validated_replay_matches_oracle_by_hand(graph):
    """replay_app(validate=True) checks exactly what validate() checks."""
    dres = replay_app(
        "cc-inc", graph, CONFIGS["discrete-CTA"], "3x24@9", validate=True
    )
    for e in dres.epochs:
        validate("cc-inc", e.graph, e.result).assert_valid()
