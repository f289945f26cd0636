"""Workload ``serve-churn``: HTTP load on ``repro serve``.

A closed loop of 2 callers works through a seeded sequence of fresh
static jobs, fresh edit-script jobs and repeats.  Its open-loop metrics
are modelled, not measured: the measured job latencies replayed through
a two-server FIFO queue, like the sweep's.  They add no evidence beyond
``p50_ms``/``p90_ms``.

Correctness is checked after the timed window: every response digest
against an in-process ``execute_spec`` of the same spec.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

from e2ebench import stats
from e2ebench.common import (
    REPLAY_ARRIVALS,
    Context,
    Report,
    die_with_parent,
    engine_layers,
    fingerprint,
    fresh_setup,
    graph_layers,
    latency_line,
    layer_table,
)
from e2ebench.layers import EngineProbe
from e2ebench.loadgen import Op, Server, closed_loop
from e2ebench.spans import SpanRecorder
from e2ebench.workloads import churn_len, churn_ops, request_body, sequence_sha256

#: set-up runs this many times before the timed window and this many
#: after it, and the median is reported: the machine's speed drifts within
#: a run, and set-ups spread over the run read it as the window does
SETUP_BEFORE, SETUP_AFTER = 2, 2
#: what a service client imports before its first request
SETUP_IMPORTS = ("numpy", "repro.perf.bench", "repro.service.jobs", "e2ebench.serve")
#: serve-churn replayed open loop: offered rates (jobs/s, about 5% and
#: 15% of the closed loop's throughput), p99 limit
CHURN_LO_RATE = 0.6
CHURN_HI_RATE = 2.0
CHURN_SLO_P99_MS = 5000.0
#: serve-churn: distinct jobs re-run in process, under the probe, in the
#: traced run (a fixed prefix, so the counts are exact), and ops in
#: ``sim_fingerprint``
CHURN_TRACED_JOBS = 24
FINGERPRINT_OPS = 40


# ---------------------------------------------------------------------------
# set-up, shared
# ---------------------------------------------------------------------------
def _setup(ctx: Context, warm_bodies: list[bytes], setups: list) -> Server:
    """One set-up: the client's set-up in a fresh interpreter (imports,
    dataset builds), server boot to ``/healthz`` and the warm-up requests.
    Appends (seconds, client set-up, warm-up ops) to ``setups`` and
    returns the running server."""
    t0 = time.perf_counter()
    client = fresh_setup(ctx, SETUP_IMPORTS)
    server = Server(ctx.root, ctx.out_dir / f"server-{ctx.workload}-seed{ctx.seed}.log")
    server.start()
    try:
        warm = closed_loop(server.port, warm_bodies, float("inf"))
    except BaseException:
        server.stop()
        raise
    setups.append((time.perf_counter() - t0, client, warm))
    return server


def _with_server(ctx: Context, warm_bodies: list[bytes], window):
    """``SETUP_BEFORE`` set-ups before the window, ``window(server)``
    on the last one's server, then its set-ups after the window.  Returns
    the window's result, the median set-up seconds, the client set-ups and
    every warm-up op."""
    setups: list = []
    for _ in range(SETUP_BEFORE - 1):
        _setup(ctx, warm_bodies, setups).stop()
    server = _setup(ctx, warm_bodies, setups)
    try:
        result = window(server)
    finally:
        server.stop()
    for _ in range(SETUP_AFTER):
        _setup(ctx, warm_bodies, setups).stop()
    return (result, statistics.median(t for t, _, _ in setups), [c for _, c, _ in setups],
            [op for _, _, warm in setups for op in warm])


#: a fresh interpreter's ``result_digest`` of ``execute_spec`` on a fresh
#: Lab for each job in the JSON list in the file ``argv[2]``
_REFERENCE = """
import json, sys
sys.path[:0] = sys.argv[1:2]
from repro.service.jobs import execute_spec, result_digest, spec_from_dict
with open(sys.argv[2], encoding="utf-8") as fh:
    jobs = json.load(fh)
print(json.dumps([result_digest(execute_spec(spec_from_dict(job))) for job in jobs]))
"""
#: seconds the reference digests may take
REFERENCE_TIMEOUT_S = 120.0


def _reference_digests(ctx: Context, jobs: dict[int, dict]) -> dict[int, str]:
    """Reference digest of each job, computed outside the server after the
    timed window, in two child interpreters (one per core), each with
    every other job; both are waited for on every path out."""
    keys = list(jobs)
    shares = [keys[0::2], keys[1::2]]
    stem = ctx.out_dir / f"reference-{ctx.workload}-seed{ctx.seed}"
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    procs = []
    try:
        for n, share in enumerate(shares):
            path = Path(f"{stem}-{n}.json")
            path.write_text(json.dumps([jobs[k] for k in share]), encoding="utf-8")
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _REFERENCE, str(ctx.root / "src"), str(path)],
                cwd=ctx.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                preexec_fn=die_with_parent,
            ))
        outs = [proc.communicate(timeout=REFERENCE_TIMEOUT_S) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    out = {}
    for share, proc, (stdout, stderr) in zip(shares, procs, outs):
        if proc.returncode:
            raise RuntimeError(f"reference digests failed: {stderr.decode()[-2000:]}")
        out.update(zip(share, json.loads(stdout.decode().splitlines()[-1])))
    return out


def _check(ops: list[Op], expected: list[str]) -> tuple[int, int]:
    """Count ops that failed (refused, errored, never answered or wrong)
    and wrong answers; ``expected[i]`` is op ``i``'s reference digest."""
    failed = wrong = 0
    for op, want in zip(ops, expected):
        if op.status != 200:
            failed += 1
        elif op.doc.get("digest") != want:
            failed += 1
            wrong += 1
    return failed, wrong


# ---------------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------------
def run(ctx: Context, report: Report) -> None:
    from repro.perf.bench import BENCH_DATASETS

    ops_seq = churn_ops(ctx.seed, churn_len(ctx.seconds), ctx.size)
    # one seed-0 job per dataset builds the server's graphs in set-up;
    # sequence jobs all carry a fresh seed or edit script, so never match
    warm_jobs = [{"app": "bfs", "dataset": ds, "config": "persist-CTA", "size": ctx.size}
                 for ds in BENCH_DATASETS]
    warm_bodies = [request_body(job, "warm") for job in warm_jobs]

    def window(server: Server):
        cpu0 = server.cpu_s()
        ops = closed_loop(server.port, [request_body(o["job"], o["tenant"]) for o in ops_seq],
                          ctx.seconds)
        cpu1 = server.cpu_s()
        stats_doc, peak_rss = server.get("/v1/stats"), server.peak_rss_mib()
        traces = _fetch_traces(server, ops) if ctx.trace else {}
        return ops, cpu1 - cpu0, stats_doc, peak_rss, traces

    (ops, cpu_s, stats_doc, peak_rss, traces), setup_s, reps, warm = _with_server(
        ctx, warm_bodies, window)

    distinct = {ops_seq[i]["of"] for i in range(len(ops))}
    jobs = {i: ops_seq[i]["job"] for i in sorted(distinct)}
    refs = _reference_digests(ctx, jobs)
    warm_refs = _reference_digests(ctx, dict(enumerate(warm_jobs)))
    failed, wrong = _check(warm + ops,
                           [warm_refs[op.index] for op in warm]
                           + [refs[ops_seq[i]["of"]] for i in range(len(ops))])
    report.attempted += len(warm) + len(ops)
    report.failed += failed
    report.wrong += wrong
    report.info["ops_sha256"] = sequence_sha256(ops_seq[:len(ops)])
    report.info["ops_sent"] = len(ops)
    report.info["sim_fingerprint"] = fingerprint(
        refs[ops_seq[i]["of"]] for i in range(min(len(ops), FINGERPRINT_OPS)))

    ok = [op for op in ops if op.status == 200]
    lat = [op.latency_ms for op in ok]
    span_s = max(op.done for op in ops) - min(op.sent for op in ops)
    hits = sum(1 for op in ok if op.doc.get("cached"))
    report.say(f"serve-churn: {len(ops)} jobs in {span_s:.2f} s, {hits} answered from cache; "
               f"setup {setup_s:.3f} s  server peak RSS {peak_rss:.1f} MiB")
    report.say(f"  sim_fingerprint {report.info['sim_fingerprint']}")
    report.say(latency_line("job latency", lat))
    kinds = {}
    for i, op in enumerate(ops):
        kinds.setdefault(ops_seq[i]["kind"], []).append(op.latency_ms)
    for kind, values in sorted(kinds.items()):
        report.say(latency_line(f"  {kind}", values))

    if not ctx.trace:
        seed = f"replay:{ctx.seed}"
        lo, hi = (stats.replay_quantiles(lat, rate, REPLAY_ARRIVALS, seed, servers=2)
                  for rate in (CHURN_LO_RATE, CHURN_HI_RATE))
        slo, step = stats.replay_slo_rate(lat, CHURN_SLO_P99_MS, REPLAY_ARRIVALS, seed,
                                          servers=2)
        report.say(f"  modelled open loop (measured job latencies replayed, 2 servers): {_replay_text(lo, CHURN_LO_RATE)}; "
                   f"{_replay_text(hi, CHURN_HI_RATE)}; slo_rps {slo:.3f} "
                   f"(p99 <= {CHURN_SLO_P99_MS:.0f} ms, step {step:.4f})")
        report.metrics.update({
            "setup_s": setup_s,
            "ops_per_s": len(ok) / span_s,
            "p50_ms": stats.smooth_quantile(lat, 0.5),
            "p90_ms": stats.smooth_quantile(lat, 0.9),
            "p50_ms.lo": lo[0], "p90_ms.lo": lo[1],
            "p50_ms.hi": hi[0],
            "slo_rps": slo,
            "peak_rss_mib": peak_rss,
        })
        return

    rec = SpanRecorder()
    http_roots = _http_trees(rec, ops, traces)
    http_table = layer_table(report, rec, http_roots, "HTTP jobs")
    engine_roots, app_ms, overhead_pct, results = _churn_engine_pass(ctx, rec, jobs)
    report.metrics.update(engine_layers(report, rec, engine_roots, app_ms, "in-process jobs"))
    all_self, all_wall = rec.reconcile(http_roots + engine_roots)
    replays = rec.durations("apps.replay")
    applies = rec.durations("graph.delta_apply")
    report.metrics.update(graph_layers(reps))
    report.metrics.update(_service_microbench(ctx, [ops_seq[i]["job"] for i in sorted(distinct)],
                                              results))
    report.metrics.update(_server_layers(rec, stats_doc))
    report.metrics.update({
        "graph.delta_apply_ms": statistics.mean(applies) / 1e6 if applies else 0.0,
        "apps.replay_ms": statistics.mean(replays) / 1e6 if replays else 0.0,
        "http.overhead_ms": _http_overhead(ops),
        "server.cpu_us_per_req": cpu_s / max(1, len(ok)) * 1e6,
        "trace.other_ms": http_table["other_ms"],
        "trace.reconcile_err_pct": abs(all_self - all_wall) / max(1, all_wall) * 100,
        "trace.overhead_pct": overhead_pct,
    })
    report.info["spans"] = rec


def _churn_engine_pass(ctx: Context, rec: SpanRecorder, jobs: dict[int, dict]):
    """Re-run the first ``CHURN_TRACED_JOBS`` distinct jobs through a
    ``LabPool`` in process: once plain, once under the probe."""
    from repro.service.jobs import spec_from_dict
    from repro.service.pool import LabPool

    specs = [spec_from_dict(job) for _, job in sorted(jobs.items())[:CHURN_TRACED_JOBS]]
    plain_pool, traced_pool = LabPool(), LabPool()
    t0 = time.perf_counter()
    for spec in specs:
        plain_pool.run(spec)
    plain_s = time.perf_counter() - t0
    roots, app_ms, results = [], {}, []
    t0 = time.perf_counter()
    with EngineProbe(rec):
        for spec in specs:
            c0 = time.perf_counter()
            with rec.span("op") as root, rec.span("service.pool_run"):
                results.append(traced_pool.run(spec))
            roots.append(root)
            app_ms.setdefault(spec.app, []).append((time.perf_counter() - c0) * 1e3)
    traced_s = time.perf_counter() - t0
    return roots, app_ms, (traced_s - plain_s) / plain_s * 100, list(zip(specs, results))


def _replay_text(q: tuple[float, float, float], rate: float) -> str:
    return f"{rate}/s p50 {q[0]:.1f} p90 {q[1]:.1f} p99 {q[2]:.1f} ms"


# ---------------------------------------------------------------------------
# traced-run helpers
# ---------------------------------------------------------------------------
def _fetch_traces(server: Server, ops: list[Op]) -> dict[str, dict]:
    out = {}
    for op in ops:
        trace_id = op.doc.get("trace_id") if op.status == 200 else None
        if trace_id:
            try:
                out[trace_id] = server.get(f"/v1/traces/{trace_id}")
            except RuntimeError:
                pass  # evicted: the op stays out of the decomposition
    return out


def _http_trees(rec: SpanRecorder, ops: list[Op], traces: dict[str, dict]) -> list[int]:
    """One tree per answered op: the client's round trip, with the
    server's trace spans (same monotonic clock) hung under it."""
    roots = []
    for op in ops:
        doc = traces.get(op.doc.get("trace_id")) if op.status == 200 else None
        if doc is None:
            continue
        root = rec.add("op", round(op.sent * 1e9), round(op.done * 1e9), None)
        index = {}
        for span in doc["spans"]:
            parent = root if span["parent_id"] is None else index.get(span["parent_id"], root)
            end = span["end_ns"] if span["end_ns"] is not None else span["start_ns"]
            index[span["span_id"]] = rec.add(f"server.{span['name']}", span["start_ns"], end,
                                             parent)
        roots.append(root)
    return roots


def _http_overhead(ops: list[Op]) -> float:
    """Mean client round trip minus the server's own ``wall_ms``."""
    gaps = [op.latency_ms - op.doc["wall_ms"] for op in ops if op.status == 200]
    return statistics.mean(gaps) if gaps else 0.0


def _server_layers(rec: SpanRecorder, stats_doc: dict) -> dict:
    waits = rec.durations("server.queue.wait")
    engines = rec.durations("server.engine")
    return {
        "service.pool_run_ms": statistics.mean(engines) / 1e6 if engines else 0.0,
        "service.queue_wait_ms": statistics.mean(waits) / 1e6 if waits else 0.0,
        "service.hit_ratio": stats_doc["cache"]["hit_ratio"],
        "service.broker_hit_ms": stats_doc["hit_latency_ms"]["p50"],
        "service.rejected": stats_doc["rejected"],
        "service.retries": stats_doc["retries"],
    }


def _service_microbench(ctx: Context, jobs: list[dict], pairs) -> dict:
    """Per-call cost of the service functions on this workload's jobs;
    ``pairs`` are their (spec, result), already computed."""
    from repro.graph.datasets import resolve_dataset
    from repro.perf import buildcache
    from repro.service.cache import ResultCache
    from repro.service.jobs import job_key, make_job_result, result_digest, spec_from_dict

    specs = [spec_from_dict(job) for job in jobs]
    reps = max(1, 2000 // len(specs))

    def per_call_us(fn, items) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        return (time.perf_counter() - t0) / (reps * len(items)) * 1e6

    out = {"service.spec_us": per_call_us(spec_from_dict, jobs)}
    # first key of a never-seen spec on a cold build cache: builds and
    # digests the graph; one probe spec per dataset in the workload
    first = []
    for n, ds in enumerate(sorted({resolve_dataset(s.dataset) for s in specs})):
        buildcache.cache_clear()
        probe = spec_from_dict({"app": "bfs", "dataset": ds, "config": "persist-CTA",
                                "size": ctx.size, "seed": (1 << 31) - 1 - n})
        t0 = time.perf_counter()
        job_key(probe)
        first.append((time.perf_counter() - t0) * 1e3)
    out["service.key_first_ms"] = statistics.mean(first)
    for spec in specs:
        job_key(spec)
    out["service.key_memo_us"] = per_call_us(job_key, specs)

    cache = ResultCache()
    keys = [job_key(spec) for spec, _ in pairs]
    t0 = time.perf_counter()
    for key, (_, result) in zip(keys, pairs):
        cache.put(key, result)
    out["service.cache_put_ms"] = (time.perf_counter() - t0) / len(pairs) * 1e3
    out["service.cache_get_us"] = per_call_us(cache.get, keys)
    payloads = [pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) for _, result in pairs]
    out["service.cache_sha_us"] = per_call_us(lambda p: hashlib.sha256(p).hexdigest(), payloads)
    out["service.cache_unpickle_us"] = per_call_us(pickle.loads, payloads)
    out["service.cache_digest_us"] = per_call_us(result_digest, [r for _, r in pairs])
    out["service.encode_us"] = per_call_us(
        lambda pair: json.dumps(make_job_result(
            pair[0], pair[1], cached=True, attempts=0, wall_ms=1.0, tenant="t").to_dict()),
        pairs)
    return out
