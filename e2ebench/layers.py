"""Benchmark-side spans around the program's public functions.

:class:`EngineProbe` is used only by the traced run.  While it is
active, it replaces a few public entry points with thin wrappers that
record spans into a :class:`~spans.SpanRecorder`, and it restores the
originals on exit.  The program itself carries no instrumentation for
this; the wrappers are the benchmark's own code:

==========================================  ====================
wrapped                                     span name
==========================================  ====================
``Lab.run`` / ``Lab.replay``                ``harness.run`` / ``apps.replay``
``load_dataset`` as called by ``Lab.graph`` ``graph.load``
``DeltaCsr.apply``                          ``graph.delta_apply``
each adapter's ``make_kernel`` / ``bsp``    ``apps.make_kernel`` / ``bsp.run``
``run_policy``                              ``core.drain.<policy>``
kernel-instance callbacks                   ``apps.<callback>`` (aggregate)
==========================================  ====================
"""

from __future__ import annotations

import dataclasses
import functools

from e2ebench.spans import SpanRecorder

#: TaskKernel callbacks timed per call; generation_check is the
#: discrete policies' barrier hook and counts with final_check
CALLBACKS = {
    "work_estimate": "apps.work_estimate",
    "on_read": "apps.on_read",
    "on_complete": "apps.on_complete",
    "final_check": "apps.final_check",
    "generation_check": "apps.final_check",
}


class EngineProbe:
    """Install the wrappers on enter, restore the originals on exit."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "EngineProbe":
        import repro.apps.common as common
        import repro.core.dynamic as dynamic
        import repro.harness.runner as runner
        from repro.core.policy import policy_for
        from repro.graph.delta import DeltaCsr

        rec = self.rec
        self._patch(runner.Lab, "run", self._spanned("harness.run", runner.Lab.run))
        self._patch(runner.Lab, "replay", self._spanned("apps.replay", runner.Lab.replay))
        self._patch(runner, "load_dataset", self._spanned("graph.load", runner.load_dataset))
        self._patch(DeltaCsr, "apply", self._spanned("graph.delta_apply", DeltaCsr.apply))

        orig_run_policy = common.run_policy

        def run_policy(kernel, config, *args, policy=None, **kwargs):
            name = (policy or policy_for(config)).name
            with rec.span(f"core.drain.{name}"):
                res = orig_run_policy(kernel, config, *args, policy=policy, **kwargs)
            rec.counts["core.tasks"] += int(res.total_tasks)
            rec.counts["core.sim_ns"] += int(res.elapsed_ns)
            return res

        self._patch(common, "run_policy", run_policy)
        self._patch(dynamic, "run_policy", run_policy)

        registry = common.APP_REGISTRY
        common.app_names()  # make sure every app has registered
        self._undo.append((registry, None, dict(registry)))
        for name, adapter in list(registry.items()):
            changes = {}
            if adapter.make_kernel is not None:
                changes["make_kernel"] = self._kernel_factory(adapter.make_kernel)
            if adapter.bsp is not None:
                changes["bsp"] = self._spanned("bsp.run", adapter.bsp)
            registry[name] = dataclasses.replace(adapter, **changes)
        return self

    def _kernel_factory(self, make_kernel):
        rec = self.rec

        def factory(graph, **params):
            with rec.span("apps.make_kernel"):
                kernel = make_kernel(graph, **params)
            for attr, span_name in CALLBACKS.items():
                fn = getattr(kernel, attr, None)
                if fn is not None:
                    setattr(kernel, attr, rec.timed(span_name, fn))
            return kernel

        return factory

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
