"""The async job broker: queues, fairness, retries, and the warm path.

:class:`Broker` is the scheduler-as-a-service core.  Clients ``await
submit(spec, tenant=...)``; the broker either answers from the
content-addressed :class:`~repro.service.cache.ResultCache` (warm path,
microseconds), coalesces onto an identical in-flight job (single
flight), or queues the job on its tenant's bounded deque.  A fixed set
of asyncio workers drains the tenant queues **round-robin** — a tenant
submitting 1000 jobs cannot starve one submitting 2 — and runs each
execution attempt on one of ``BrokerConfig.workers`` forked worker
processes, each holding its own warm Labs
(:mod:`repro.service.pool`).  Only the spec goes out and the
:class:`~repro.service.pool.AttemptOutcome` comes back; keying, the
cache, coalescing, fault injection and retries stay in this process.

The worker processes are forked once, in :meth:`Broker.start`, before
the event loop has started any thread (``fork`` copies only the calling
thread, so forking later could copy a lock some other thread holds).
Forking rather than spawning lets every worker inherit the imported
modules and the warm build cache instead of rebuilding them.  The
broker forks again only to replace a pool whose worker died; those
children likewise run nothing but
:func:`~repro.service.pool.run_attempt`.

Robustness contract (exercised by ``tests/test_service_faults.py``):

* a full tenant queue rejects synchronously with :class:`QueueFull`
  (HTTP 429) instead of buffering unboundedly;
* each execution attempt runs under a per-job timeout; an injected
  crash (:class:`~repro.service.faults.WorkerKilled`), a worker process
  that really died (``BrokenProcessPool``: the pool is rebuilt once) or
  a timeout triggers a bounded retry with linear backoff — determinism
  guarantees the retry computes the *same* result, so a retried job is
  digest-identical to an undisturbed one;
* :meth:`drain` stops intake, finishes every accepted job, and only
  then shuts the worker processes down — accepted work is never
  dropped.  Workers also die with the broker if it is killed outright
  (see :func:`~repro.service.pool.init_worker`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.dash.timeseries import ServiceSeries
from repro.dash.trace import Trace, Tracer
from repro.metrics.hist import LogHistogram
from repro.service.cache import DEFAULT_CACHE_BYTES, CacheStats, ResultCache
from repro.service.faults import FaultInjector, WorkerKilled
from repro.service.jobs import (
    JobResult,
    JobSpec,
    job_key,
    make_job_result,
    spec_from_dict,
    validate_spec,
)
from repro.service.pool import init_worker, run_attempt

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerClosed",
    "QueueFull",
    "JobFailed",
    "ServiceStats",
]


class BrokerClosed(RuntimeError):
    """Submit after :meth:`Broker.drain` started (HTTP 503)."""


class QueueFull(RuntimeError):
    """The tenant's queue is at its bound (HTTP 429) — back off and retry."""


class JobFailed(RuntimeError):
    """The job kept failing after the retry budget was spent (HTTP 500)."""


@dataclass(frozen=True)
class BrokerConfig:
    """Operating knobs; defaults suit tests and the in-process benchmark."""

    #: worker processes; each runs one engine attempt at a time
    workers: int = 4
    #: per-tenant queue bound; the backpressure knob (QueueFull past it)
    tenant_queue_limit: int = 64
    cache_bytes: int = DEFAULT_CACHE_BYTES
    #: per-attempt execution timeout (queue wait not included)
    job_timeout_s: float = 60.0
    #: total executions per job, first try included
    max_attempts: int = 3
    #: linear backoff: attempt k sleeps k * retry_backoff_s before retrying
    retry_backoff_s: float = 0.02
    faults: FaultInjector = field(default_factory=FaultInjector)
    #: span tracing (queue-wait / cache / attempt / engine spans per job);
    #: on by default — the overhead is a few µs per job, gated <5% by the
    #: committed BENCH_service.json throughput diff
    tracing: bool = True
    #: additionally capture the engine's obs event stream per traced job
    #: (merged Chrome export, per-epoch spans).  Off by default: attaching
    #: a sink makes the engine construct event objects on the hot path.
    trace_events: bool = False
    #: finished traces retained in memory (FIFO eviction past this)
    trace_capacity: int = 256

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.tenant_queue_limit < 1:
            raise ValueError("tenant_queue_limit must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time snapshot of broker + cache health (JSON-ready)."""

    submitted: int
    completed: int
    failed: int
    rejected: int
    coalesced: int
    retries: int
    timeouts: int
    queue_depth: int
    peak_queue_depth: int
    tenants: int
    workers: int
    draining: bool
    cache: CacheStats
    hit_latency_ms: dict
    miss_latency_ms: dict
    kills_injected: int = 0
    delays_injected: int = 0
    poisons_injected: int = 0
    #: {tenant: {submitted, completed, rejected, queue_depth}} — the
    #: per-tenant fairness/backpressure view (additive to stats-v1)
    per_tenant: dict = field(default_factory=dict)
    #: times the worker pool was rebuilt because a worker process died
    worker_restarts: int = 0
    #: [{pid, vm_hwm_kib}] per live worker process; the engine's memory
    #: lives there, not in the broker process
    worker_procs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.service/stats-v1",
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "coalesced": self.coalesced,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "queue_depth": self.queue_depth,
            "peak_queue_depth": self.peak_queue_depth,
            "tenants": self.tenants,
            "workers": self.workers,
            "worker_restarts": self.worker_restarts,
            "worker_procs": self.worker_procs,
            "draining": self.draining,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "poisons_detected": self.cache.poisons_detected,
                "entries": self.cache.entries,
                "bytes": self.cache.bytes,
                "max_bytes": self.cache.max_bytes,
                "hit_ratio": self.cache.hit_ratio,
            },
            "hit_latency_ms": self.hit_latency_ms,
            "miss_latency_ms": self.miss_latency_ms,
            "faults": {
                "kills_injected": self.kills_injected,
                "delays_injected": self.delays_injected,
                "poisons_injected": self.poisons_injected,
            },
            "per_tenant": self.per_tenant,
        }


@dataclass
class _Job:
    """One queued unit: the spec, its key, and the future its waiters share."""

    spec: JobSpec
    key: str
    tenant: str
    future: asyncio.Future  # resolves to (AppResult, attempts)
    enqueued_at: float
    enqueued_ns: int = 0
    trace: Trace | None = None


class Broker:
    """Asyncio job broker over forked warm-Lab worker processes.  See module docs."""

    def __init__(self, config: BrokerConfig | None = None) -> None:
        self.config = config or BrokerConfig()
        self.cache = ResultCache(self.config.cache_bytes)
        self.faults = self.config.faults
        self._queues: dict[str, deque[_Job]] = {}
        self._rr: list[str] = []  # tenant scan order (insertion-stable)
        self._rr_next = 0
        self._inflight: dict[str, asyncio.Future] = {}
        self._inflight_jobs: dict[str, _Job] = {}
        self._cond: asyncio.Condition | None = None
        self._procs: ProcessPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._draining = False
        self._started = False
        # counters (single-threaded: only touched on the event loop)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._coalesced = 0
        self._retries = 0
        self._timeouts = 0
        self._worker_restarts = 0
        self._peak_depth = 0
        self._busy = 0
        #: per-tenant counters for the {tenant="..."} telemetry labels
        self._tenant_counts: dict[str, dict[str, int]] = {}
        #: service latency in ms; 1 µs resolution floor
        self.hit_latency = LogHistogram(min_value=1e-3)
        self.miss_latency = LogHistogram(min_value=1e-3)
        #: wall-clock dashboard series (always on; a few list ops per job)
        self.series = ServiceSeries()
        #: span tracer, or None when the config disables tracing
        self.tracer: Tracer | None = (
            Tracer(capacity=self.config.trace_capacity) if self.config.tracing else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Fork the worker processes and spin up the worker tasks (idempotent)."""
        if self._started:
            return
        self._cond = asyncio.Condition()
        self._procs = self._fork_workers()
        self._workers = [
            asyncio.ensure_future(self._worker_loop(i))
            for i in range(self.config.workers)
        ]
        self._started = True

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish accepted work, stop."""
        if not self._started:
            return
        self._draining = True
        assert self._cond is not None
        async with self._cond:
            self._cond.notify_all()
        await asyncio.gather(*self._workers, return_exceptions=True)
        assert self._procs is not None
        self._procs.shutdown(wait=True)
        self._started = False

    def _fork_workers(self) -> ProcessPoolExecutor:
        """A pool of ``config.workers`` processes, all forked before returning.

        A fork-context pool forks every worker on its first submit; the
        no-op submitted here makes that happen now, and its answer shows
        a worker finished :func:`~repro.service.pool.init_worker`.
        """
        procs = ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=init_worker,
            initargs=(os.getpid(),),
        )
        procs.submit(os.getpid).result()
        return procs

    def _replace_broken(self, broken: ProcessPoolExecutor) -> None:
        """Swap in a fresh pool for ``broken``, once however many attempts saw it."""
        if self._procs is not broken:
            return  # a sibling attempt already replaced it
        broken.shutdown(wait=False, cancel_futures=True)
        self._procs = self._fork_workers()
        self._worker_restarts += 1

    def worker_pids(self) -> list[int]:
        """Pids of the live worker processes (empty before start)."""
        if self._procs is None:
            return []
        # ProcessPoolExecutor has no public accessor for its processes
        return sorted(self._procs._processes or ())

    async def __aenter__(self) -> "Broker":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec | dict, *, tenant: str = "default") -> JobResult:
        """Run (or fetch) one job; resolves when its result is ready.

        Raises :class:`~repro.service.jobs.JobSpecError` on a bad spec,
        :class:`QueueFull` when the tenant is over its bound,
        :class:`BrokerClosed` during drain, :class:`JobFailed` after the
        retry budget.  Every path returns a result whose ``digest``
        equals a direct serial :func:`~repro.service.jobs.execute_spec`.
        """
        if not self._started:
            raise BrokerClosed("broker not started; use 'async with Broker()' or start()")
        if self._draining:
            raise BrokerClosed("broker is draining; not accepting new jobs")
        if not isinstance(spec, JobSpec):
            spec = spec_from_dict(spec)
        validate_spec(spec)
        self._submitted += 1
        self._bump(tenant, "submitted")
        t0_ns = time.perf_counter_ns()
        t0 = t0_ns / 1e9  # perf_counter() and perf_counter_ns() share a clock
        trace: Trace | None = None
        if self.tracer is not None:
            trace = self.tracer.start(job=spec.describe(), key="", tenant=tenant)
            trace.root.start_ns = t0_ns  # root covers key derivation too
        key_span = trace.start_span("job.key") if trace is not None else None
        key = job_key(spec)
        if trace is not None:
            trace.end_span(key_span)
            trace.key = key[:16]
        self.series.mark("submitted")
        self.series.mark_tenant(tenant, "submitted")

        lookup = trace.start_span("cache.lookup") if trace is not None else None
        cached = self.cache.get(key)
        if lookup is not None:
            trace.end_span(lookup, hit=cached is not None)
        if cached is not None:
            wall_ms = (time.perf_counter() - t0) * 1e3
            self.hit_latency.record(wall_ms)
            self.series.mark("hits")
            self.series.mark_tenant(tenant, "completed")
            self._bump(tenant, "completed")
            return make_job_result(
                spec, cached, cached=True, attempts=0, wall_ms=wall_ms, tenant=tenant,
                trace_id=self._finish_trace(trace, "hit"),
            )

        inflight = self._inflight.get(key)
        if inflight is not None:
            # single flight: identical concurrent jobs share one execution
            self._coalesced += 1
            self.series.mark("coalesced")
            leader = self._inflight_jobs.get(key)
            wait_span = trace.start_span("coalesce.wait") if trace is not None else None
            result, attempts = await asyncio.shield(inflight)
            if wait_span is not None:
                trace.end_span(wait_span)
            wall_ms = (time.perf_counter() - t0) * 1e3
            self.hit_latency.record(wall_ms)
            self.series.mark_tenant(tenant, "completed")
            self._bump(tenant, "completed")
            if trace is not None and leader is not None and leader.trace is not None:
                # the share: this trace references the leader's engine span
                engine = leader.trace.find_span("engine")
                trace.root.attrs["shared_trace_id"] = leader.trace.trace_id
                if engine is not None:
                    trace.root.attrs["engine_span_id"] = engine.span_id
            return make_job_result(
                spec, result, cached=True, attempts=attempts, wall_ms=wall_ms,
                tenant=tenant, trace_id=self._finish_trace(trace, "coalesced"),
            )

        queue = self._queues.setdefault(tenant, deque())
        if tenant not in self._rr:
            self._rr.append(tenant)
        if len(queue) >= self.config.tenant_queue_limit:
            self._rejected += 1
            self._bump(tenant, "rejected")
            self.series.mark("rejected")
            self._finish_trace(trace, "rejected", error="tenant queue full")
            raise QueueFull(
                f"tenant {tenant!r} queue is full "
                f"({self.config.tenant_queue_limit} jobs); retry later"
            )
        job = _Job(
            spec=spec,
            key=key,
            tenant=tenant,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=t0,
            enqueued_ns=time.perf_counter_ns(),
            trace=trace,
        )
        queue.append(job)
        self._inflight[key] = job.future
        self._inflight_jobs[key] = job
        depth = sum(len(q) for q in self._queues.values())
        if depth > self._peak_depth:
            self._peak_depth = depth
        self.series.gauge("queue_depth", depth)
        assert self._cond is not None
        async with self._cond:
            self._cond.notify()
        try:
            result, attempts = await asyncio.shield(job.future)
        except BaseException:
            self._finish_trace(trace, "failed")
            raise
        finally:
            if self._inflight.get(key) is job.future:
                del self._inflight[key]
            if self._inflight_jobs.get(key) is job:
                del self._inflight_jobs[key]
        wall_ms = (time.perf_counter() - t0) * 1e3
        self.miss_latency.record(wall_ms)
        self.series.mark("completed")
        self.series.mark_tenant(tenant, "completed")
        self._bump(tenant, "completed")
        return make_job_result(
            spec, result, cached=False, attempts=attempts, wall_ms=wall_ms, tenant=tenant,
            trace_id=self._finish_trace(trace, "miss", attempts=attempts),
        )

    # ------------------------------------------------------------------
    # Tracing / accounting helpers
    # ------------------------------------------------------------------
    def _bump(self, tenant: str, name: str) -> None:
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            counts = self._tenant_counts[tenant] = {
                "submitted": 0, "completed": 0, "rejected": 0
            }
        counts[name] += 1

    def _finish_trace(self, trace: Trace | None, outcome: str, **attrs) -> str | None:
        """Close and retain ``trace``; returns its id (None when untraced)."""
        if trace is None:
            return None
        assert self.tracer is not None
        self.tracer.finish(trace, outcome=outcome, **attrs)
        return trace.trace_id

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _next_job(self) -> _Job | None:
        """Round-robin dequeue across tenants; ``None`` means shut down."""
        assert self._cond is not None
        async with self._cond:
            while True:
                if self._rr:
                    n = len(self._rr)
                    for step in range(n):
                        tenant = self._rr[(self._rr_next + step) % n]
                        queue = self._queues[tenant]
                        if queue:
                            self._rr_next = (self._rr_next + step + 1) % n
                            return queue.popleft()
                if self._draining:
                    return None
                await self._cond.wait()

    async def _worker_loop(self, index: int) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            await self._execute(job, index)

    async def _attempt(self, spec: JobSpec, trace: Trace | None = None, attempt_span=None):
        """One execution attempt: the engine run happens in a worker process.

        The fault draws stay here, in their per-attempt order: the kill
        before dispatch, the completion delay after the outcome returns
        (an ``asyncio.sleep`` inside the caller's ``wait_for``, so a
        straggler still trips the per-job timeout).  When tracing, the
        engine span is stamped by the worker, tight around the Lab run,
        and carries the worker's ``pid``; with event capture on, the
        worker's Chrome doc and epoch spans are filed under it.
        """
        self.faults.maybe_kill()
        capture = trace is not None and self.config.trace_events
        procs = self._procs
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                procs, run_attempt, spec, trace.trace_id if capture else None
            )
        except BrokenProcessPool:
            self._replace_broken(procs)
            raise
        if trace is not None:
            parent_id = attempt_span.span_id if attempt_span is not None else "root"
            attrs = dict(attempt_span.attrs) if attempt_span is not None else {}
            attrs["pid"] = outcome.pid
            engine = trace.add_span(
                "engine", start_ns=outcome.start_ns, end_ns=outcome.end_ns,
                parent_id=parent_id, attrs=attrs,
            )
            if outcome.engine_doc is not None:
                trace.engine_doc = outcome.engine_doc
            for name, s0, s1 in outcome.epoch_spans:
                trace.add_span(name, start_ns=s0, end_ns=s1, parent_id=engine.span_id)
        delay = self.faults.completion_delay()
        if delay:
            await asyncio.sleep(delay)
        return outcome.result

    async def _execute(self, job: _Job, worker: int = 0) -> None:
        """Drive one job through the attempt/retry loop and settle its future."""
        trace = job.trace
        if trace is not None:
            trace.add_span(
                "queue.wait",
                start_ns=job.enqueued_ns,
                end_ns=time.perf_counter_ns(),
                attrs={"worker": worker},
            )
        self._busy += 1
        self.series.gauge("busy_workers", self._busy)
        self.series.gauge("queue_depth", self.queue_depth())
        try:
            await self._run_attempts(job, worker, trace)
        finally:
            self._busy -= 1
            self.series.gauge("busy_workers", self._busy)

    async def _run_attempts(self, job: _Job, worker: int, trace: Trace | None) -> None:
        last_error: BaseException | None = None
        for attempt in range(1, self.config.max_attempts + 1):
            cached = self.cache.get(job.key)
            if cached is not None:
                # a sibling worker (or earlier drain pass) beat us to it
                if not job.future.done():
                    job.future.set_result((cached, 0))
                return
            attempt_span = None
            if trace is not None:
                attempt_span = trace.start_span("attempt")
                attempt_span.attrs.update(attempt=attempt, worker=worker)
            try:
                result = await asyncio.wait_for(
                    self._attempt(job.spec, trace, attempt_span),
                    timeout=self.config.job_timeout_s,
                )
            except (WorkerKilled, BrokenProcessPool) as exc:
                # injected crash, or a worker process really died (OOM
                # kill, segfault, kill -9; _attempt replaced the pool)
                last_error = exc
                if trace is not None:
                    trace.end_span(
                        attempt_span, status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if attempt < self.config.max_attempts:
                    # retries counts re-executions actually scheduled, so a
                    # kill on the final attempt is a failure, not a retry
                    self._retries += 1
                    await asyncio.sleep(self.config.retry_backoff_s * attempt)
                continue
            except asyncio.TimeoutError as exc:
                # NOTE: the worker process keeps running the abandoned
                # attempt; the broker just stops waiting for it.
                last_error = TimeoutError(
                    f"attempt {attempt} exceeded {self.config.job_timeout_s}s"
                )
                last_error.__cause__ = exc
                self._timeouts += 1
                if trace is not None:
                    trace.end_span(attempt_span, status="error", error=str(last_error))
                if attempt < self.config.max_attempts:
                    self._retries += 1
                    await asyncio.sleep(self.config.retry_backoff_s * attempt)
                continue
            except Exception as exc:
                # deterministic failure: retrying would fail identically
                self._failed += 1
                self.series.mark("failed")
                if trace is not None:
                    trace.end_span(
                        attempt_span, status="error",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                if not job.future.done():
                    job.future.set_exception(
                        JobFailed(f"{job.spec.describe()}: {type(exc).__name__}: {exc}")
                    )
                return
            if trace is not None:
                trace.end_span(attempt_span)
            self.cache.put(job.key, result)
            self.faults.maybe_poison(self.cache)
            self._completed += 1
            if not job.future.done():
                job.future.set_result((result, attempt))
            return
        self._failed += 1
        self.series.mark("failed")
        if not job.future.done():
            job.future.set_exception(
                JobFailed(
                    f"{job.spec.describe()}: gave up after "
                    f"{self.config.max_attempts} attempts: {last_error}"
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def timeseries(self) -> dict:
        """The ``/v1/timeseries`` document: dashboard series + stats."""
        doc = self.series.to_dict()
        doc["tracing"] = self.tracer is not None
        doc["stats"] = self.stats().to_dict()
        return doc

    def traces_doc(self, *, limit: int = 100) -> dict:
        """The ``/v1/traces`` document: recent trace summaries."""
        return {
            "schema": "repro.dash/traces-v1",
            "tracing": self.tracer is not None,
            "traces": self.tracer.summaries(limit=limit) if self.tracer else [],
        }

    def trace_doc(self, trace_id: str) -> dict | None:
        """One full trace document, or None (unknown id / tracing off)."""
        if self.tracer is None:
            return None
        trace = self.tracer.get(trace_id)
        return trace.to_dict() if trace is not None else None

    def stats(self) -> ServiceStats:
        return ServiceStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            rejected=self._rejected,
            coalesced=self._coalesced,
            retries=self._retries,
            timeouts=self._timeouts,
            worker_restarts=self._worker_restarts,
            worker_procs=[
                {"pid": pid, "vm_hwm_kib": _vm_hwm_kib(pid)} for pid in self.worker_pids()
            ],
            queue_depth=self.queue_depth(),
            peak_queue_depth=self._peak_depth,
            tenants=len(self._queues),
            workers=self.config.workers,
            draining=self._draining,
            cache=self.cache.stats(),
            hit_latency_ms=self.hit_latency.to_dict(),
            miss_latency_ms=self.miss_latency.to_dict(),
            kills_injected=self.faults.kills_injected,
            delays_injected=self.faults.delays_injected,
            poisons_injected=self.faults.poisons_injected,
            per_tenant={
                tenant: {
                    **counts,
                    "queue_depth": len(self._queues.get(tenant, ())),
                }
                for tenant, counts in sorted(self._tenant_counts.items())
            },
        )


def _vm_hwm_kib(pid: int) -> int | None:
    """Peak resident set (``VmHWM``) of ``pid`` in KiB; None once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None
