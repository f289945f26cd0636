"""Service telemetry exporters: Prometheus text + JSONL.

Mirrors :mod:`repro.metrics.export` for the broker's own operational
stats: everything renders from the schema-stable
``repro.service/stats-v1`` document (:meth:`Broker.stats().to_dict()
<repro.service.broker.Broker.stats>`), so a snapshot captured under load
exports identically later.  The ``/metrics`` HTTP endpoint serves
:func:`stats_to_prometheus`; :func:`stats_to_jsonl` is the line-oriented
form for log shippers and ``jq``.
"""

from __future__ import annotations

import json

__all__ = ["STATS_SCHEMA", "stats_to_prometheus", "stats_to_jsonl"]

STATS_SCHEMA = "repro.service/stats-v1"

#: stats-document counters exported as Prometheus counters (monotone totals)
_COUNTERS = (
    "submitted",
    "completed",
    "failed",
    "rejected",
    "coalesced",
    "retries",
    "timeouts",
    "worker_restarts",
)
#: instantaneous values exported as gauges
_GAUGES = ("queue_depth", "peak_queue_depth", "tenants", "workers")
_CACHE_COUNTERS = ("hits", "misses", "evictions", "poisons_detected")
_CACHE_GAUGES = ("entries", "bytes", "max_bytes")
#: per-tenant counters from the stats document's ``per_tenant`` block
_TENANT_COUNTERS = ("submitted", "completed", "rejected")


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if isinstance(value, float) and not float(value).is_integer():
        return repr(value)
    return str(int(value))


def _histogram_lines(name: str, h: dict) -> list[str]:
    """Native Prometheus histogram from a LogHistogram snapshot."""
    lines = [f"# TYPE {name} histogram"]
    subbuckets = h["subbuckets"]
    min_value = h["min_value"]
    cumulative = h["zero"]
    for idx in sorted(int(k) for k in h["buckets"]):
        cumulative += h["buckets"][str(idx)]
        octave, sub = divmod(idx, subbuckets)
        le = min_value * 2.0**octave * (1.0 + (sub + 1) / subbuckets)
        lines.append(f'{name}_bucket{{le="{le!r}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {h["count"]}')
    lines.append(f"{name}_sum {_fmt(h['sum'])}")
    lines.append(f"{name}_count {h['count']}")
    for q in ("p50", "p90", "p99"):
        lines.append(f"# TYPE {name}_{q} gauge")
        lines.append(f"{name}_{q} {_fmt(h[q])}")
    return lines


def stats_to_prometheus(doc: dict, *, prefix: str = "repro_service") -> str:
    """Render a ``stats-v1`` document in Prometheus text format."""
    lines: list[str] = []

    def metric(name: str, mtype: str, value: float) -> None:
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"{name} {_fmt(value)}")

    for cname in _COUNTERS:
        metric(f"{prefix}_{cname}_total", "counter", doc[cname])
    for gname in _GAUGES:
        metric(f"{prefix}_{gname}", "gauge", doc[gname])
    metric(f"{prefix}_draining", "gauge", int(bool(doc["draining"])))
    cache = doc["cache"]
    for cname in _CACHE_COUNTERS:
        metric(f"{prefix}_cache_{cname}_total", "counter", cache[cname])
    for gname in _CACHE_GAUGES:
        metric(f"{prefix}_cache_{gname}", "gauge", cache[gname])
    lines.append(f"# TYPE {prefix}_cache_hit_ratio gauge")
    lines.append(f"{prefix}_cache_hit_ratio {cache['hit_ratio']!r}")
    faults = doc.get("faults", {})
    for fname in sorted(faults):
        metric(f"{prefix}_fault_{fname}_total", "counter", faults[fname])
    per_tenant = doc.get("per_tenant", {})
    if per_tenant:
        # one # TYPE line per family, then one labelled sample per tenant —
        # the exposition-format rule exporter lint tests pin
        for cname in _TENANT_COUNTERS:
            lines.append(f"# TYPE {prefix}_tenant_{cname}_total counter")
            for tenant in sorted(per_tenant):
                value = per_tenant[tenant].get(cname, 0)
                lines.append(
                    f'{prefix}_tenant_{cname}_total{{tenant="{_escape_label(tenant)}"}} '
                    f"{_fmt(value)}"
                )
        lines.append(f"# TYPE {prefix}_tenant_queue_depth gauge")
        for tenant in sorted(per_tenant):
            depth = per_tenant[tenant].get("queue_depth", 0)
            lines.append(
                f'{prefix}_tenant_queue_depth{{tenant="{_escape_label(tenant)}"}} '
                f"{_fmt(depth)}"
            )
    lines.extend(_histogram_lines(f"{prefix}_hit_latency_ms", doc["hit_latency_ms"]))
    lines.extend(_histogram_lines(f"{prefix}_miss_latency_ms", doc["miss_latency_ms"]))
    return "\n".join(lines) + "\n"


def stats_to_jsonl(doc: dict) -> str:
    """One JSON object per line: broker, cache, faults, latency histograms."""
    records: list[dict] = [
        {
            "kind": "broker",
            "schema": doc.get("schema", STATS_SCHEMA),
            **{k: doc[k] for k in (*_COUNTERS, *_GAUGES, "draining")},
        },
        {"kind": "cache", **doc["cache"]},
        {"kind": "faults", **doc.get("faults", {})},
        *(
            {"kind": "tenant", "tenant": tenant, **counts}
            for tenant, counts in sorted(doc.get("per_tenant", {}).items())
        ),
        {"kind": "latency", "name": "hit_latency_ms", **doc["hit_latency_ms"]},
        {"kind": "latency", "name": "miss_latency_ms", **doc["miss_latency_ms"]},
    ]
    return (
        "\n".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records
        )
        + "\n"
    )
