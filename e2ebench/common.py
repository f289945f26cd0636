"""What every workload shares: the run context, the report, the checks."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from e2ebench import stats
from e2ebench.spans import SpanRecorder

#: arrivals of the open-loop replay of a closed workload's op latencies
REPLAY_ARRIVALS = 20_000


@dataclass
class Context:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    out_dir: Path


@dataclass
class Report:
    """One run's outcome; ``metrics`` holds end-to-end or per-layer values."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # answers that failed a correctness check (also in failed)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    layer_names: tuple[str, ...] = ()

    def say(self, line: str = "") -> None:
        self.lines.append(line)

    def idle(self, *prefixes: str) -> None:
        """Layers this workload never calls read 0: every per-layer
        metric starting with one of ``prefixes`` that is not yet set."""
        for name in self.layer_names:
            if name.startswith(prefixes):
                self.metrics.setdefault(name, 0.0)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def die_with_parent() -> None:
    """``preexec_fn`` of every child process: the kernel sends it SIGTERM
    when this process ends, however it ends (Linux ``PR_SET_PDEATHSIG``),
    so no child outlives a run that is killed."""
    ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGTERM))


def machine_info() -> dict:
    """nproc, calibration score and versions, recorded in every result."""
    import numpy as np
    from repro.perf.bench import calibrate

    return {
        "nproc": os.cpu_count(),
        "calibration_ms": calibrate() / 1e6,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def fingerprint(digests) -> str:
    """``sim_fingerprint``: SHA-256 (16 hex) over result digests in op order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(str(d).encode() + b"\n")
    return h.hexdigest()[:16]


def time_graph_setup(size: str, datasets) -> tuple[list[float], list[float]]:
    """Cold dataset builds after clearing the build cache, then the first
    topology digest of each.  Returns (build ms, digest ms)."""
    from repro.graph.datasets import load_dataset
    from repro.perf import buildcache

    buildcache.cache_clear()
    builds, digests = [], []
    for ds in datasets:
        b0 = time.perf_counter()
        graph = load_dataset(ds, size)
        b1 = time.perf_counter()
        graph.topology_digest()
        b2 = time.perf_counter()
        builds.append((b1 - b0) * 1e3)
        digests.append((b2 - b1) * 1e3)
    return builds, digests


_FRESH_SETUP = """
import importlib, json, sys
sys.path[:0] = sys.argv[1:3]
for name in sys.argv[4].split(","):
    importlib.import_module(name)
from e2ebench.common import time_graph_setup
from repro.perf.bench import BENCH_DATASETS
print(json.dumps(time_graph_setup(sys.argv[3], BENCH_DATASETS)))
"""


def fresh_setup(ctx: Context, modules) -> tuple[float, list[float], list[float]]:
    """The client's set-up in a fresh interpreter: start-up, imports of
    ``modules``, cold dataset builds and first digests.  Returns (seconds
    from spawn to exit, build ms, digest ms).

    Imports are most of it (about 0.4 s), and one import in the
    workload's own process reads the machine's speed at one moment;
    a median over repeats in fresh interpreters reads it over several.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SETUP, str(ctx.root / "src"), str(ctx.root), ctx.size,
         ",".join(modules)],
        cwd=ctx.root, capture_output=True, text=True, timeout=120, check=False,
        preexec_fn=die_with_parent,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh interpreter: {proc.stderr[-2000:]}")
    builds, digests = json.loads(proc.stdout.splitlines()[-1])
    return wall, builds, digests


def latency_line(label: str, values_ms: list[float]) -> str:
    """Smoothed p50 and p90 (the gated statistics) and the p99."""
    return (
        f"  {label:<28} n={len(values_ms):<6} p50={stats.smooth_quantile(values_ms, 0.5):9.3f}"
        f" p90={stats.smooth_quantile(values_ms, 0.9):9.3f}"
        f" p99={stats.quantile(values_ms, 0.99):9.3f} ms"
    )


def layer_table(report: Report, rec: SpanRecorder, roots: list[int], title: str) -> dict:
    """Self time per span name over ``roots`` (ms per op), the ``other``
    residue (the op spans' own self time) and the reconciliation."""
    n = max(1, len(roots))
    selfs = rec.self_times(roots)
    total_self, total_wall = rec.reconcile(roots)
    report.say(f"  traced {title}: {len(roots)} ops, self time per op (ms)")
    for name, ns in sorted(selfs.items(), key=lambda kv: -kv[1]):
        label = "other" if name == "op" else name
        report.say(f"    {label:<34} {ns / n / 1e6:10.4f}")
    err_pct = abs(total_self - total_wall) / max(1, total_wall) * 100
    report.say(
        f"    {'sum of self + other':<34} {total_self / n / 1e6:10.4f}"
        f"   op wall {total_wall / n / 1e6:.4f}   mismatch {err_pct:.4f}%"
    )
    return {
        "selfs_ms_per_op": {k: v / n / 1e6 for k, v in selfs.items()},
        "other_ms": selfs.get("op", 0) / n / 1e6,
        "wall_ms": total_wall / n / 1e6,
        "reconcile_err_pct": err_pct,
    }


def graph_layers(reps) -> dict:
    """graph.build_ms / graph.digest_ms: medians over the set-up repeats."""
    return {
        "graph.build_ms": statistics.median(b for r in reps for b in r[1]),
        "graph.digest_ms": statistics.median(d for r in reps for d in r[2]),
    }


def engine_layers(report: Report, rec: SpanRecorder, roots: list[int],
                  app_ms: dict[str, list[float]], title: str) -> dict:
    """Per-layer metrics of in-process engine ops (ms per op unless noted)."""
    from repro.apps.common import APP_REGISTRY, app_names

    table = layer_table(report, rec, roots, title)
    selfs = table["selfs_ms_per_op"]
    calls = rec.agg_totals()
    tasks = rec.counts["core.tasks"]
    drain_ns = sum(d for name in {s[0] for s in rec.spans if s[0].startswith("core.drain.")}
                   for d in rec.durations(name))
    out = {
        "apps.make_kernel_ms": selfs.get("apps.make_kernel", 0.0),
        "apps.on_read_ms": selfs.get("apps.on_read", 0.0),
        "apps.on_complete_ms": selfs.get("apps.on_complete", 0.0),
        "apps.work_estimate_ms": selfs.get("apps.work_estimate", 0.0),
        "apps.final_check_ms": selfs.get("apps.final_check", 0.0),
        "apps.callbacks": sum(n for n, _ in calls.values()),
        "core.drain_self_ms.persistent": selfs.get("core.drain.persistent", 0.0),
        "core.drain_self_ms.discrete": selfs.get("core.drain.discrete", 0.0),
        "core.drain_self_ms.distributed": selfs.get("core.drain.distributed", 0.0),
        "core.tasks": tasks,
        "core.sim_ns": rec.counts["core.sim_ns"],
        "core.host_ns_per_task": drain_ns / tasks if tasks else 0.0,
        "bsp.run_ms": selfs.get("bsp.run", 0.0),
        "harness.self_ms": selfs.get("harness.run", 0.0),
        "trace.other_ms": table["other_ms"],
        "trace.reconcile_err_pct": table["reconcile_err_pct"],
    }
    for app in app_names():
        if not APP_REGISTRY[app].dynamic:
            out[f"apps.cell_ms.{app}"] = statistics.mean(app_ms[app]) if app in app_ms else 0.0
    return out
