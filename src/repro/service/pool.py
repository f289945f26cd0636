"""Broker worker processes: warm Labs, one execution attempt per call.

The broker runs every job attempt on a ``fork``-context
:class:`~concurrent.futures.ProcessPoolExecutor` of
``BrokerConfig.workers`` processes, forked once when the broker starts.
Engine runs are pure Python, so threads sharing one interpreter lock
would act as one worker; processes run side by side.  Each worker
process holds its own :class:`LabPool` — the same idea as
:mod:`repro.perf.parallel`'s per-process warm Lab: the second job that
touches a (dataset, size) pair skips the graph build, and repeated
static cells are served straight from the Lab's run memo.  A forked
worker also inherits the broker's build cache as it stood at start.

Only :func:`run_attempt`'s arguments (the spec and an optional trace
id) and its :class:`AttemptOutcome` cross the process boundary; keying,
the result cache, coalescing, fault injection and retries all stay in
the broker process.

The one rule that must never be broken (the bug class pinned by the
regression tests in ``tests/test_perf.py``): **dynamic jobs — anything
with an edit script — never touch a warm Lab.**  The Lab memo is keyed
``(app, dataset, impl, permuted)`` with no edit script in the key, and a
replay mutates kernel state across epochs; running job B's replay on a
Lab warmed by job A's could serve A's memoised results or A's residual
state.  Dynamic jobs get a fresh single-use Lab (graph builds still hit
the process-wide :mod:`repro.perf.buildcache`, so the isolation costs a
dictionary miss, not a rebuild).  What they do share is the worker's
base-epoch store in :func:`repro.apps.dynamic.replay_app`: epoch 0 never
depends on the edit script, and each replay starts from a deep copy of
the stored post-epoch-0 kernel, keyed by everything epoch 0 does depend
on, so no job sees another's edits or residual state.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass, replace

from repro.apps.common import AppResult
from repro.dash.trace import EpochWallSink
from repro.obs.collector import Collector
from repro.obs.events import MultiSink
from repro.obs.export import to_chrome_trace
from repro.service.jobs import JobSpec, execute_spec
from repro.sim.trace import ThroughputTrace

__all__ = ["AttemptOutcome", "LabPool", "init_worker", "run_attempt"]

#: prctl(2) option: signal this process when its parent dies
_PR_SET_PDEATHSIG = 1


class LabPool:
    """Warm Labs of one process, keyed by the shape of machine they simulate."""

    def __init__(self) -> None:
        self._labs: dict[tuple, object] = {}

    @staticmethod
    def _key(spec: JobSpec) -> tuple:
        return (spec.size, spec.backend, spec.devices, spec.partition)

    def _warm_lab(self, spec: JobSpec):
        from repro.harness.runner import Lab

        key = self._key(spec)
        lab = self._labs.get(key)
        if lab is None:
            lab = self._labs[key] = Lab(
                size=spec.size,
                backend=spec.backend,
                devices=spec.devices,
                partition=spec.partition,
            )
        return lab

    def run(self, spec: JobSpec, *, sink=None) -> AppResult:
        """Execute ``spec`` on the right kind of Lab for its job class.

        ``sink`` (event capture for traced jobs) passes straight through
        to :func:`~repro.service.jobs.execute_spec`, which guarantees a
        sink always observes a fresh, non-memoised execution.
        """
        if spec.edits is not None:
            # dynamic: fresh single-use Lab, never installed as warm state;
            # replay_app reuses only a copy of the edit-free epoch 0
            return execute_spec(spec, lab=None, sink=sink)
        return execute_spec(spec, lab=self._warm_lab(spec), sink=sink)


@dataclass(frozen=True)
class AttemptOutcome:
    """What one attempt sends back to the broker.

    ``start_ns``/``end_ns`` bound the engine run on ``perf_counter_ns``,
    which reads CLOCK_MONOTONIC — one clock for every process on the
    host — so they nest directly inside the broker's attempt span.
    """

    result: AppResult
    start_ns: int
    end_ns: int
    pid: int
    #: Chrome doc of the captured event stream (event capture only)
    engine_doc: dict | None = None
    #: ``(name, start_ns, end_ns)`` per replay epoch (event capture only)
    epoch_spans: tuple = ()


#: this worker process's warm Labs; installed by :func:`init_worker`
_WORKER_POOL: LabPool | None = None


def init_worker(broker_pid: int) -> None:
    """Pool initializer: tie the worker's life to the broker's.

    ``PR_SET_PDEATHSIG`` makes the kernel send SIGTERM when the broker
    dies, even by SIGKILL; the ``getppid`` check closes the race where
    the broker died between the fork and the ``prctl``.  SIGINT is
    ignored so a terminal Ctrl-C reaches only the broker, which drains
    and then shuts the workers down; SIGTERM gets its default action
    back, and the wakeup fd inherited from the broker's event loop is
    dropped so a signal here never wakes the broker's loop.
    """
    global _WORKER_POOL
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, int(signal.SIGTERM))
    if os.getppid() != broker_pid:
        os._exit(0)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    _WORKER_POOL = LabPool()


def run_attempt(spec: JobSpec, trace_id: str | None = None) -> AttemptOutcome:
    """Execute one attempt of ``spec`` in a worker process.

    The result comes back with an empty per-task ``ThroughputTrace``:
    no service code reads it, and it is most of a result's bytes, which
    the broker would otherwise ship, pickle, hash and hold in its cache.

    With ``trace_id`` the run also gets a per-job :class:`Collector`
    (tagged with the trace id) plus an :class:`EpochWallSink`; the
    collector comes back as a Chrome doc and the epoch marks as spans,
    so the broker can file both under the attempt's engine span.
    """
    if _WORKER_POOL is None:
        raise RuntimeError("run_attempt runs in a broker worker process (see init_worker)")
    sink = collector = epoch_sink = None
    if trace_id is not None:
        collector = Collector(trace_id=trace_id)
        epoch_sink = EpochWallSink()
        sink = MultiSink(collector, epoch_sink)
    start_ns = time.perf_counter_ns()
    result = _WORKER_POOL.run(spec, sink=sink)
    end_ns = time.perf_counter_ns()
    engine_doc, epoch_spans = None, ()
    if collector is not None:
        engine_doc = to_chrome_trace(collector, process_name=f"engine {spec.app}")
        epoch_spans = tuple(epoch_sink.epoch_spans())
    # a copy: a static result is also the warm Lab's memo entry
    result = replace(result, trace=ThroughputTrace())
    return AttemptOutcome(result, start_ns, end_ns, os.getpid(), engine_doc, epoch_spans)
