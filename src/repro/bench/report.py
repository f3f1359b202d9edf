"""Machine-readable benchmark reports (``repro bench --json`` and
``repro profile --json``).

Both commands write one flat schema, so a run's numbers can be read
without knowing which command produced them::

    {
      "schema": "repro-bench/v1",
      "schema_version": 1,          # bumped on incompatible changes
      "name": "profile",            # the command that wrote it
      "params": {...},              # how the run was configured
      "metrics": {                  # flat, dot-keyed, numbers only
        "throughput_ops": 798.3,
        "latency.p50_ms": 0.55,
        "stage.quorum_wait.p99_ms": 0.75,
        ...
      },
      "health": {...}               # optional HealthMonitor summary
    }

``metrics`` values are plain numbers (or null when a stage was not
observed); everything else about the run — tables, traces, span dumps —
lives in the human-facing outputs.  The numbers are simulated, so they
repeat bit for bit per seed; the profile scenario's metrics are pinned
with ``==`` in ``tests/test_bench_gate.py``.
"""

import json

from repro.common.util import atomic_write

SCHEMA = "repro-bench/v1"

#: Bumped whenever the report layout changes incompatibly, so a reader
#: can tell metrics that may have changed meaning from comparable ones.
SCHEMA_VERSION = 1

#: Span stages promoted into bench metrics (p50/p99 each).
_PROFILE_STAGES = ("log_fsync", "quorum_wait", "commit_latency", "e2e")


def bench_metrics(result):
    """Flatten a :class:`~repro.bench.runner.BenchResult` to gate metrics."""
    metrics = {
        "throughput_ops": result.throughput,
        "committed": result.committed,
        "duration_s": result.duration,
    }
    latency = result.latency or {}
    for key in ("mean", "p50", "p95", "p99"):
        if key in latency:
            metrics["latency.%s_ms" % key] = latency[key] * 1e3
    if result.net_stats:
        metrics["net.bytes_sent"] = sum(
            result.net_stats.get("bytes_sent", {}).values()
        )
        metrics["net.messages_dropped"] = result.net_stats.get(
            "messages_dropped", 0
        )
    return metrics


def profile_metrics(summary):
    """Flatten a :func:`repro.obs.spans.profile_trace` summary."""
    metrics = {
        "transactions": summary["transactions"],
        "committed": summary["committed"],
    }
    if summary.get("throughput_ops") is not None:
        metrics["throughput_ops"] = summary["throughput_ops"]
    for stage in _PROFILE_STAGES:
        snap = summary["stages"].get(stage, {})
        if snap.get("count"):
            metrics["stage.%s.p50_ms" % stage] = snap["p50"] * 1e3
            metrics["stage.%s.p99_ms" % stage] = snap["p99"] * 1e3
    fraction = summary.get("quorum_wait_fraction", {})
    if fraction.get("count"):
        metrics["quorum_wait_fraction.mean"] = fraction["mean"]
    return metrics


def make_report(name, metrics, params=None, health=None):
    """Assemble one schema-tagged report dict.

    *health* is an optional
    :meth:`~repro.obs.health.HealthMonitor.summary` dict; when given,
    the artifact carries the run's health verdict alongside its
    numbers.
    """
    report = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "params": params or {},
        "metrics": metrics,
    }
    if health is not None:
        report["health"] = health
    return report


def write_report(report, path):
    """Write a report (any JSON object) atomically as pretty, key-sorted
    JSON; returns *path*."""
    with atomic_write(path) as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_bench_report(result, path, health=None):
    """Write the ``bench`` report of a bench run to *path*; returns it."""
    report = make_report(
        "bench", bench_metrics(result), params=result.params, health=health
    )
    return write_report(report, path)


def write_profile_report(summary, path, params=None, health=None):
    """Write the ``profile`` report of a profile run to *path*; returns
    it."""
    report = make_report(
        "profile", profile_metrics(summary), params=params, health=health
    )
    return write_report(report, path)
