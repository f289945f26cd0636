"""Seeded op sequences for the workloads.

Everything here is a pure function of the workload seed (and the size
preset), so the same seed gives a byte-identical op sequence; the
SHA-256 of the ops a run sent is in its result file (``ops_sha256``).  Job mixes are drawn in
shuffled blocks rather than independently, so every prefix of a
sequence holds the intended shares and two seeds differ in order, not in
how much work they ask for.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from repro.perf.bench import BENCH_DATASETS, BENCH_PRESETS, bench_cells

#: the 10 distributed cells added to the 44-cell bench grid
DIST_APPS = ("bfs", "cc", "pagerank", "sssp", "coloring")
DIST_PRESET = "persist-CTA"
DIST_DEVICES = 4

#: serve-churn: per block of 20 ops, 9 fresh-seed static jobs, 4 fresh
#: edit-script jobs and 7 repeats of earlier jobs (45% / 20% / 35%)
CHURN_STATIC_APPS = ("bfs", "cc", "coloring", "kcore", "mis", "pagerank", "sssp")
CHURN_DYNAMIC_APPS = ("bfs-inc", "cc-inc", "pagerank-inc")
CHURN_BLOCK = ("static",) * 9 + ("dynamic",) * 4 + ("repeat",) * 7
CHURN_EDITS = "2x16"
CHURN_TENANTS = 4


def sequence_sha256(items) -> str:
    """SHA-256 over the canonical JSON of an op sequence."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- sweep -----------------------------------------------------------------
def sweep_cells() -> list[tuple[str, str, str, int]]:
    """(app, dataset, preset, devices): the 44 bench cells plus 10 distributed."""
    cells = [(c.app, c.dataset, c.impl, 1) for c in bench_cells()]
    cells += [(app, ds, DIST_PRESET, DIST_DEVICES) for app in DIST_APPS for ds in BENCH_DATASETS]
    return cells


def sweep_order(seed: int, pass_index: int) -> list[int]:
    """Cell order of one pass: a seeded shuffle of the whole grid."""
    order = list(range(len(sweep_cells())))
    random.Random(f"sweep:{seed}:{pass_index}").shuffle(order)
    return order


def request_body(job: dict, tenant: str) -> bytes:
    return json.dumps({"job": job, "tenant": tenant}, sort_keys=True).encode()


# -- serve-churn -----------------------------------------------------------
def churn_ops(seed: int, n: int, size: str) -> list[dict]:
    """``n`` churn ops: ``{"kind", "job", "tenant", "of"}``.

    ``of`` is the index of the op whose job this one repeats (repeats
    only), else the op's own index.  Static jobs carry a fresh schedule
    seed and dynamic jobs a fresh edit seed, so each is a cache miss.
    """
    rng = random.Random(f"churn:{seed}")
    static_classes = [
        (app, preset, ds)
        for app in CHURN_STATIC_APPS
        for preset in BENCH_PRESETS
        for ds in BENCH_DATASETS
    ]
    dynamic_classes = [(app, ds) for app in CHURN_DYNAMIC_APPS for ds in BENCH_DATASETS]
    static_cycle: list = []
    dynamic_cycle: list = []
    used_seeds: set[int] = set()

    def fresh_seed() -> int:
        while True:
            s = rng.randrange(1, 1 << 30)
            if s not in used_seeds:
                used_seeds.add(s)
                return s

    def next_class(cycle: list, classes: list):
        if not cycle:
            cycle.extend(classes)
            rng.shuffle(cycle)
        return cycle.pop()

    ops: list[dict] = []
    originals: list[int] = []
    kinds: list[str] = []
    while len(kinds) < n:
        block = list(CHURN_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    first = next(i for i, kind in enumerate(kinds) if kind != "repeat")
    kinds[0], kinds[first] = kinds[first], kinds[0]  # a repeat needs an earlier job
    for i, kind in enumerate(kinds[:n]):
        tenant = f"tenant-{i % CHURN_TENANTS}"
        if kind == "repeat":
            of = originals[rng.randrange(len(originals))]
            ops.append({"kind": "repeat", "job": ops[of]["job"], "tenant": tenant, "of": of})
            continue
        if kind == "dynamic":
            app, ds = next_class(dynamic_cycle, dynamic_classes)
            job = {
                "app": app, "dataset": ds, "config": "persist-CTA", "size": size,
                "edits": f"{CHURN_EDITS}@{fresh_seed()}",
            }
        else:
            app, preset, ds = next_class(static_cycle, static_classes)
            job = {"app": app, "dataset": ds, "config": preset, "size": size,
                   "seed": fresh_seed()}
        originals.append(i)
        ops.append({"kind": kind, "job": job, "tenant": tenant, "of": i})
    return ops


def churn_len(seconds: float) -> int:
    """Ops generated for a run: far more than a closed loop can finish."""
    return max(400, math.ceil(seconds * 200))
