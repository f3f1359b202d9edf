"""Machine-readable benchmark reports (``BENCH_<name>.json``).

Every gated performance artifact flows through one flat schema so the
regression checker (``scripts/check_bench_regression.py``) can compare
runs without knowing which experiment produced them::

    {
      "schema": "repro-bench/v1",
      "schema_version": 1,          # bumped on incompatible changes
      "name": "smoke",
      "params": {...},              # how the run was configured
      "metrics": {                  # flat, dot-keyed, numbers only
        "throughput_ops": 771.9,
        "latency.p50_ms": 0.55,
        "stage.quorum_wait.p99_ms": 0.75,
        ...
      },
      "health": {...}               # optional HealthMonitor summary
    }

``metrics`` values are plain numbers (or null when a stage was not
observed); everything else about the run — tables, traces, span dumps —
lives in the human-facing outputs.  The committed baseline with
per-metric tolerances is ``benchmarks/baseline.json``; from this PR
onward every change to the perf trajectory is a recorded, reviewed
diff against it.
"""

import json

from repro.common.util import atomic_write

SCHEMA = "repro-bench/v1"

#: Bumped whenever the report layout changes incompatibly.  Readers
#: (the regression gate) hard-fail on a mismatch rather than silently
#: comparing metrics that may have changed meaning.
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
    workload = getattr(result, "workload", None)
    if workload is not None:
        # Session-class runs: per-class rates/latencies flow into the
        # same flat namespace, pre-flattened by the aggregate driver.
        metrics.update(workload.get("class_metrics", {}))
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


def load_report(path):
    """Read a ``BENCH_*.json`` file, checking its schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            report = json.load(handle)
        except ValueError as exc:
            raise ValueError("%s: not JSON (%s)" % (path, exc)) from exc
    if not isinstance(report, dict):
        raise ValueError("%s: not a JSON object" % path)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            "%s: schema %r is not %r" % (path, report.get("schema"), SCHEMA)
        )
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            "%s: schema_version %r does not match this tree's %d — "
            "regenerate the report with `repro bench --json` / "
            "`repro profile --json` from the same checkout"
            % (path, version, SCHEMA_VERSION)
        )
    if not isinstance(report.get("metrics"), dict):
        raise ValueError("%s: missing metrics object" % path)
    return report


def write_bench_report(result, name, path=None, params=None, health=None):
    """Emit ``BENCH_<name>.json`` for a bench run; returns the path."""
    merged = dict(result.params)
    merged.update(params or {})
    report = make_report(
        name, bench_metrics(result), params=merged, health=health
    )
    return write_report(report, path or "BENCH_%s.json" % name)


def write_profile_report(summary, name, path=None, params=None,
                         health=None):
    """Emit ``BENCH_<name>.json`` for a profile run; returns the path."""
    report = make_report(
        name, profile_metrics(summary), params=params, health=health
    )
    return write_report(report, path or "BENCH_%s.json" % name)
