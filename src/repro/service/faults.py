"""Seeded fault injection for the scheduler service.

The broker's recovery paths — retry-on-crash, timeout-and-retry,
poison-detection-and-recompute — are worthless if they are only ever
*believed* to work.  :class:`FaultInjector` exercises them mechanically:
a seeded RNG decides, per execution attempt, whether the "worker" dies
(:class:`WorkerKilled` raised just before the attempt is dispatched to
a worker process), how long a
completion is delayed (stressing the per-job timeout), and whether a
freshly stored cache entry is silently corrupted (stressing digest
detection in :class:`~repro.service.cache.ResultCache`).

Determinism matters: the same seed replays the same fault schedule, so a
failing fault test is reproducible.  For tests that need exact control
rather than probabilities, :meth:`script_kills` arms a fixed number of
guaranteed kills consumed before any probabilistic draw.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

__all__ = ["WorkerKilled", "FaultInjector", "NO_FAULTS"]


class WorkerKilled(RuntimeError):
    """A worker died mid-job (the injected stand-in for a process crash).

    The broker handles it exactly as it handles a worker process that
    really died (``BrokenProcessPool``): the attempt is lost, not the
    service, and bounded retries re-execute it.
    """


@dataclass
class FaultInjector:
    """Seeded fault source the broker consults at each hook point.

    ``kill_prob``: per attempt, raise :class:`WorkerKilled` before dispatch.
    ``delay_prob`` / ``delay_s``: per attempt, stall the completion by
    ``delay_s`` wall seconds *after* the simulation finished (models a
    straggling worker; trips the per-job timeout when ``delay_s`` exceeds
    it).  ``poison_prob``: after each cache store, flip one byte of a
    random cached entry.  All draws come from one ``random.Random(seed)``
    behind a lock, so a fixed seed yields a fixed fault schedule.
    """

    seed: int = 0
    kill_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.0
    poison_prob: float = 0.0
    #: counters (diagnostics; the broker's stats mirror what *landed*)
    kills_injected: int = 0
    delays_injected: int = 0
    poisons_injected: int = 0
    _scripted_kills: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("kill_prob", "delay_prob", "poison_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def script_kills(self, n: int) -> None:
        """Arm ``n`` guaranteed kills, consumed before probabilistic ones."""
        with self._lock:
            self._scripted_kills += n

    def maybe_kill(self) -> None:
        """Raise :class:`WorkerKilled` if this attempt draws a crash."""
        with self._lock:
            if self._scripted_kills > 0:
                self._scripted_kills -= 1
                self.kills_injected += 1
                raise WorkerKilled("injected worker crash (scripted)")
            if self.kill_prob and self._rng.random() < self.kill_prob:
                self.kills_injected += 1
                raise WorkerKilled("injected worker crash")

    def completion_delay(self) -> float:
        """Seconds to stall this attempt's completion (0 = no delay)."""
        with self._lock:
            if self.delay_prob and self._rng.random() < self.delay_prob:
                self.delays_injected += 1
                return self.delay_s
        return 0.0

    def maybe_poison(self, cache) -> bool:
        """Corrupt one random cached entry if this store draws a poison."""
        with self._lock:
            if not (self.poison_prob and self._rng.random() < self.poison_prob):
                return False
        keys = cache.keys()
        if not keys:
            return False
        with self._lock:
            victim = self._rng.choice(keys)
            self.poisons_injected += 1
        return cache.corrupt(victim)


#: the no-op injector a production broker runs with
NO_FAULTS = FaultInjector()
