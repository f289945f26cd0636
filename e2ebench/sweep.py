"""Workload ``sweep``: serial passes over the 54-cell grid, a fresh Lab per pass.

The grid is :func:`repro.perf.bench.bench_cells` (44 cells: 8 apps under
the bench presets on both headline datasets) plus 10 four-device cells.
Each pass runs every cell once, in a seeded order, through
``Lab.run`` on a fresh ``Lab`` (so the Lab's memo never answers), with
the process-wide graph build cache warm.  No service layer runs.

The open-loop metrics (``p50_ms.lo`` ... ``slo_rps``) are modelled, not
measured: the measured cell times replayed through a FIFO queue.
"""

from __future__ import annotations

import statistics
import time

from e2ebench import stats
from e2ebench.common import (
    REPLAY_ARRIVALS,
    Context,
    Report,
    engine_layers,
    fingerprint,
    fresh_setup,
    graph_layers,
    latency_line,
    time_graph_setup,
)
from e2ebench.layers import EngineProbe
from e2ebench.loadgen import self_peak_rss_mib
from e2ebench.spans import SpanRecorder
from e2ebench.workloads import sequence_sha256, sweep_cells, sweep_order

#: what a sweep client imports before its first cell
SETUP_IMPORTS = ("numpy", "repro.check.oracles", "repro.harness.runner", "repro.perf.bench",
                 "repro.service.jobs", "e2ebench.sweep")

#: open-loop replay of the measured cell times: offered rates (cells/s,
#: about 5% and 15% of the serial throughput, so little queueing amplifies
#: machine noise) and the p99 limit for ``slo_rps`` (the longest cell
#: takes ~1 s)
LO_RATE = 0.5
HI_RATE = 1.5
REPLAY_SLO_P99_MS = 5000.0


def run(ctx: Context, report: Report) -> None:
    from repro.check.oracles import validate
    from repro.harness.runner import Lab
    from repro.perf.bench import BENCH_DATASETS
    from repro.service.jobs import result_digest

    time_graph_setup(ctx.size, BENCH_DATASETS)  # warms this process's build cache
    # set-up is timed in fresh interpreters, once here and once after each
    # pass (outside the timed window), so its median samples the whole run
    reps = [fresh_setup(ctx, SETUP_IMPORTS)]

    cells = sweep_cells()
    digests: dict[int, str] = {}
    last: dict[int, tuple] = {}  # cell -> (result, lab) from the latest pass
    lat_ms: list[float] = []
    pass_rates: list[float] = []
    failed_ops = 0
    orders: list[list[int]] = []
    rec = SpanRecorder()
    traced_ms = untraced_ms = 0.0
    roots: list[int] = []
    app_ms: dict[str, list[float]] = {}

    passes = 2 if ctx.trace else None
    p = 0
    window_s = last_pass_s = 0.0
    while True:
        if passes is not None and p >= passes:
            break
        if passes is None and p > 0 and window_s + 0.5 * last_pass_s >= ctx.seconds:
            break
        order = sweep_order(ctx.seed, p)
        orders.append(order)
        labs = {1: Lab(size=ctx.size), 4: Lab(size=ctx.size, devices=4)}
        p0 = time.perf_counter()
        for i in order:
            app, ds, preset, devices = cells[i]
            traced = ctx.trace and (i + p) % 2 == 0
            c0 = time.perf_counter()
            try:
                if traced:
                    with EngineProbe(rec), rec.span("op") as root:
                        result = labs[devices].run(app, ds, preset)
                    roots.append(root)
                else:
                    result = labs[devices].run(app, ds, preset)
            except Exception as exc:  # a failing cell is counted, not fatal
                report.say(f"  cell {cells[i]} raised {type(exc).__name__}: {exc}")
                failed_ops += 1
                report.attempted += 1
                continue
            c1 = time.perf_counter()
            report.attempted += 1
            ms = (c1 - c0) * 1e3
            lat_ms.append(ms)
            if traced:
                traced_ms += ms
                app_ms.setdefault(app, []).append(ms)
            elif ctx.trace:
                untraced_ms += ms
            last[i] = (result, labs[devices])
            digest = result_digest(result)
            if digests.setdefault(i, digest) != digest:
                report.say(f"  cell {cells[i]} changed digest between passes")
                failed_ops += 1
                report.wrong += 1
        last_pass_s = time.perf_counter() - p0
        window_s += last_pass_s
        pass_rates.append(len(order) / last_pass_s)
        p += 1
        reps.append(fresh_setup(ctx, SETUP_IMPORTS))
    setup_s = statistics.median(r[0] for r in reps)
    peak_rss = self_peak_rss_mib()  # before the checks below allocate

    # correctness, outside the timed window: every distinct result
    # against its answer oracle
    bad_cells = 0
    for i, (result, lab) in sorted(last.items()):
        app, ds = cells[i][:2]
        if not validate(app, lab.graph(ds), result).ok:
            report.say(f"  oracle rejected {cells[i]}")
            bad_cells += 1
    if bad_cells:
        failed_ops += bad_cells * p
        report.wrong += bad_cells
    report.failed = min(report.attempted, failed_ops)

    report.info["passes"] = p
    report.info["window_s"] = window_s
    report.info["ops_sha256"] = sequence_sha256(orders)
    report.info["sim_fingerprint"] = fingerprint(digests[i] for i in orders[0] if i in digests)
    report.say(f"sweep: {p} passes x {len(cells)} cells in {window_s:.2f} s, setup {setup_s:.3f} s "
               f"(median of {len(reps)}: {' '.join(f'{r[0]:.3f}' for r in reps)})")
    report.say(f"  sim_fingerprint {report.info['sim_fingerprint']}")
    report.say(latency_line("cell latency", lat_ms))

    if not ctx.trace:
        seed = f"replay:{ctx.seed}"
        lo = stats.replay_quantiles(lat_ms, LO_RATE, REPLAY_ARRIVALS, seed, servers=1)
        hi = stats.replay_quantiles(lat_ms, HI_RATE, REPLAY_ARRIVALS, seed, servers=1)
        slo, resolution = stats.replay_slo_rate(lat_ms, REPLAY_SLO_P99_MS, REPLAY_ARRIVALS,
                                                seed, servers=1)
        report.say(f"  modelled open loop (measured cell times replayed): lo {LO_RATE}/s p50 {lo[0]:.1f} p90 {lo[1]:.1f} "
                   f"p99 {lo[2]:.1f} ms; hi {HI_RATE}/s p50 {hi[0]:.1f} p90 {hi[1]:.1f} "
                   f"p99 {hi[2]:.1f} ms; slo_rps {slo:.3f} (p99 <= {REPLAY_SLO_P99_MS:.0f} ms, "
                   f"step {resolution:.4f})")
        report.metrics.update({
            "setup_s": setup_s,
            "ops_per_s": statistics.median(pass_rates),
            "p50_ms": stats.smooth_quantile(lat_ms, 0.5),
            "p90_ms": stats.smooth_quantile(lat_ms, 0.9),
            "p50_ms.lo": lo[0], "p90_ms.lo": lo[1],
            "p50_ms.hi": hi[0],
            "slo_rps": slo,
            "peak_rss_mib": peak_rss,
        })
        return

    report.metrics.update(graph_layers(reps))
    report.metrics.update(engine_layers(report, rec, roots, app_ms, "cells"))
    report.metrics["trace.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100
    report.idle("graph.delta_apply_ms", "apps.replay_ms", "service.", "http.", "server.")
    report.info["spans"] = rec
