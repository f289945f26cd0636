"""Order statistics and the FIFO queue replay used by every workload."""

from __future__ import annotations

import heapq
import math
import random

import numpy as np


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least ``q`` of the
    samples at or below it.  ``quantile(xs, 0.99)`` over 1000 samples leaves
    exactly ten samples above it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(xs)))
    return float(xs[rank - 1])


def smooth_quantile(values, q: float, *, n_eff: int | None = None) -> float:
    """Harrell–Davis estimate of the ``q`` quantile: a weighted mean of all
    order statistics, with weights from Beta((n+1)q, (n+1)(1-q)).

    Unlike the nearest-rank quantile it does not jump when the sample has
    a gap at the quantile, as a grid of 54 fixed cells or a job mix has.
    ``n_eff`` sets the weights' width for a sample that holds fewer
    independent values than its length (a replay that cycles measured
    op latencies); by default it is the sample size.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    if not xs.size:
        raise ValueError("quantile of an empty sample")
    n = xs.size if n_eff is None else n_eff
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf), [pdf.sum()])) / pdf.sum()
    grid = np.concatenate(([0.0], grid, [1.0]))
    weights = np.diff(np.interp(np.arange(xs.size + 1) / xs.size, grid, cdf))
    return float(weights @ xs)


def poisson_arrivals(n: int, seed: str) -> list[float]:
    """``n`` arrival times (seconds from 0) of a seeded unit-rate Poisson
    process; divide by a rate to offer that rate."""
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(n):
        t += rng.expovariate(1.0)
        out.append(t)
    return out


def replay_quantiles(lat_ms: list[float], rate: float, arrivals: int, seed: str,
                     servers: int) -> tuple[float, float, float]:
    """Smoothed p50 and p90, and the p99 (ms), of measured op latencies
    replayed through a ``servers``-wide FIFO queue fed by seeded Poisson
    arrivals at ``rate``.  The smoothing width is that of the measured
    sample: the replay holds no more independent values than it."""
    lat, _ = replay_fifo([ms / 1e3 for ms in lat_ms],
                         [t / rate for t in poisson_arrivals(arrivals, seed)], servers)
    ms = [x * 1e3 for x in lat]
    return (smooth_quantile(ms, 0.5, n_eff=len(lat_ms)),
            smooth_quantile(ms, 0.9, n_eff=len(lat_ms)), quantile(ms, 0.99))


def replay_slo_rate(lat_ms: list[float], limit_ms: float, arrivals: int, seed: str,
                    servers: int) -> tuple[float, float]:
    """Highest replayed arrival rate whose p99 latency meets ``limit_ms``
    with the queue drained within the limit after the last arrival, by
    bisection below the replay's capacity.  Returns (rate, resolution)."""
    service = [ms / 1e3 for ms in lat_ms]
    unit = poisson_arrivals(arrivals, seed)

    def ok(rate: float) -> bool:
        lat, drain = replay_fifo(service, [t / rate for t in unit], servers)
        return quantile(lat, 0.99) * 1e3 <= limit_ms and drain * 1e3 <= limit_ms

    lo, hi = 0.0, servers * len(service) / sum(service)
    for _ in range(20):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo, hi - lo


def replay_fifo(service_s: list[float], arrivals: list[float],
                servers: int) -> tuple[list[float], float]:
    """Latency of each arrival through a ``servers``-wide FIFO queue.

    Arrival ``k`` takes ``service_s[k % len(service_s)]`` seconds once a
    server is free (Lindley's recursion, generalised to ``c`` servers by
    always taking the earliest-free one).  Returns the latencies in
    seconds, counted from each arrival, and the drain time: how long
    after the last arrival the last completion lands.
    """
    free = [0.0] * servers
    heapq.heapify(free)
    lat = []
    last_done = 0.0
    n = len(service_s)
    for k, a in enumerate(arrivals):
        start = max(a, heapq.heappop(free))
        done = start + service_s[k % n]
        heapq.heappush(free, done)
        lat.append(done - a)
        last_done = max(last_done, done)
    return lat, last_done - arrivals[-1]

