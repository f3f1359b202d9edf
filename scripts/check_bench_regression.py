#!/usr/bin/env python
"""Gate benchmark runs against the committed baseline.

Usage::

    python scripts/check_bench_regression.py BENCH_smoke.json
    python scripts/check_bench_regression.py BENCH_*.json --update

Each ``BENCH_<name>.json`` report (``repro profile --json`` /
``repro bench --json``; schema ``repro-bench/v1``) is compared against
its entry in ``benchmarks/baseline.json``.  Every metric present in the
baseline must be present in the run and **equal** to it.  Metrics only
the run has are informational — they become gated once ``--update``
records them.

The simulator runs on virtual time with seeded randomness, so a run is
bit-for-bit reproducible per (scenario, seed) — on any machine, under
any ``PYTHONHASHSEED`` — and the gate compares with ``==``.  A change
that moves a metric on purpose re-records the baseline with ``--update``
and says so.

Exit codes: 0 all reports equal their baseline, 1 at least one
violation, 2 usage or file errors.
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

from repro.bench.report import load_report  # noqa: E402

BASELINE_SCHEMA = "repro-bench-baseline/v1"
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks",
    "baseline.json",
)


def load_baseline(path):
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if not isinstance(baseline, dict):
        raise ValueError("%s: not a JSON object" % path)
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            "%s: schema %r is not %r"
            % (path, baseline.get("schema"), BASELINE_SCHEMA)
        )
    if not isinstance(baseline.get("entries"), dict):
        raise ValueError("%s: missing entries object" % path)
    return baseline


def check_report(report, entry):
    """Compare one run against one baseline entry.

    Returns ``(rows, failures)`` where *rows* are
    ``(metric, base, run, status)`` for every baseline metric and
    *failures* counts the violations.
    """
    base_metrics = entry["metrics"]
    run_metrics = report["metrics"]
    rows = []
    failures = 0
    for metric in sorted(base_metrics):
        base = base_metrics[metric]
        run = run_metrics.get(metric)
        if run is None:
            status = "MISSING"
        elif run == base:
            status = "ok"
        else:
            status = "FAIL"
        if status != "ok":
            failures += 1
        rows.append((metric, base, run, status))
    return rows, failures


def render_rows(rows):
    # repr: the digits the comparison saw, to the last one.
    lines = ["  %-34s %22s %22s  %s" % ("metric", "baseline", "run", "")]
    for metric, base, run, status in rows:
        lines.append(
            "  %-34s %22r %22s  %s"
            % (metric, base, "-" if run is None else repr(run),
               status if status != "ok" else "")
        )
    return "\n".join(lines)


def update_baseline(path, reports, existing):
    """Record *reports* as the new baseline (other entries are kept)."""
    entries = dict(existing.get("entries", {})) if existing else {}
    for report in reports:
        entries[report["name"]] = {"metrics": report["metrics"]}
    baseline = {"schema": BASELINE_SCHEMA, "entries": entries}
    directory = os.path.dirname(os.path.abspath(path))
    if directory and not os.path.isdir(directory):
        os.makedirs(directory)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare BENCH_*.json reports against the committed "
                    "baseline",
    )
    parser.add_argument("reports", nargs="+", metavar="BENCH.json")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline file "
                             "(default benchmarks/baseline.json)")
    parser.add_argument("--update", action="store_true",
                        help="record the runs as the new baseline "
                             "instead of checking")
    args = parser.parse_args(argv)

    try:
        reports = [load_report(path) for path in args.reports]
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if args.update:
        existing = None
        if os.path.exists(args.baseline):
            try:
                existing = load_baseline(args.baseline)
            except ValueError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 2
        baseline = update_baseline(args.baseline, reports, existing)
        print("%s: recorded %s" % (
            args.baseline,
            ", ".join(sorted(baseline["entries"])),
        ))
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    total_failures = 0
    for path, report in zip(args.reports, reports):
        entry = baseline["entries"].get(report["name"])
        if entry is None:
            print("%s: FAIL: no baseline entry %r (run with --update "
                  "to record one)" % (path, report["name"]))
            total_failures += 1
            continue
        rows, failures = check_report(report, entry)
        verdict = "FAIL (%d violations)" % failures if failures else "OK"
        print("%s vs baseline %r: %s" % (path, report["name"], verdict))
        print(render_rows(rows))
        extra = sorted(set(report["metrics"]) - set(entry["metrics"]))
        if extra:
            print("  ungated metrics (absent from baseline): %s"
                  % ", ".join(extra))
        total_failures += failures
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
