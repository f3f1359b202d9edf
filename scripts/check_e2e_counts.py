#!/usr/bin/env python
"""Pin the deterministic results of the end-to-end benchmark exactly.

Usage::

    python3 benchmarks/e2e/run.py --smoke --json e2e_smoke.json
    python scripts/check_e2e_counts.py e2e_smoke.json
    python scripts/check_e2e_counts.py e2e_smoke.json --update

For a fixed seed everything the simulated ensemble computes repeats bit
for bit on any machine: messages, bytes, kernel events and fsyncs per
op, explorer runs and states, every ``sim_*`` result.  Only host
timings differ.  This compares those values at ``--smoke`` sizes against
``benchmarks/e2e_smoke_counts.json`` with ``==`` — a host-only
optimisation must leave every one identical, and a protocol change moves
them on purpose and re-pins them with ``--update``.

Pinned per workload: ``untraced.work``, every value of ``untraced.sim``
and ``untraced.detail``, and every ``traced.per_layer`` metric that is
not derived from host time.

Exit codes: 0 identical, 1 at least one value differs (one line each:
``workload metric pinned got``), 2 usage, file or schema errors.
"""

import argparse
import json
import os
import sys

PINNED_SCHEMA = "bench-e2e-counts/v1"
DEFAULT_PINNED = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks",
    "e2e_smoke_counts.json",
)
#: Per-layer metrics measured in (or divided by) host seconds.
_HOST_SUFFIXES = (
    "self_us_per_op", "_s_share", "_self_us", "_self_s", "_host_s",
)
_HOST_NAMES = frozenset(["trace.overhead_ratio", "trace.calibration_scale"])


def is_host_metric(name):
    return name in _HOST_NAMES or name.endswith(_HOST_SUFFIXES)


def deterministic_values(result):
    """``{workload: {metric: value}}`` of one ``run.py --json`` result."""
    if result.get("schema") != "bench-e2e/v1" or not result.get("smoke"):
        raise ValueError("not a bench-e2e/v1 result taken with --smoke")
    values = {}
    for workload, block in result["workloads"].items():
        untraced = block["untraced"]
        flat = {"untraced.work": untraced["work"]}
        for part in ("sim", "detail"):
            for name, value in untraced[part].items():
                flat["untraced.%s.%s" % (part, name)] = value
        for name, value in block["traced"]["per_layer"].items():
            if not is_host_metric(name):
                flat["traced.%s" % name] = value
        values[workload] = flat
    return {"schema": PINNED_SCHEMA, "seed": result["seed"],
            "workloads": values}


def differences(pinned, got):
    """Lines ``workload metric pinned got`` for every value that moved."""
    lines = []
    if pinned["seed"] != got["seed"]:
        lines.append("* seed %r %r" % (pinned["seed"], got["seed"]))
    absent = "absent"
    for workload in sorted(set(pinned["workloads"]) | set(got["workloads"])):
        before = pinned["workloads"].get(workload, {})
        after = got["workloads"].get(workload, {})
        for metric in sorted(set(before) | set(after)):
            old = before.get(metric, absent)
            new = after.get(metric, absent)
            if old != new:
                lines.append("%s %s %r %r" % (workload, metric, old, new))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("result", help="run.py --smoke --json output")
    parser.add_argument("--pinned", default=DEFAULT_PINNED)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the pinned file from this result")
    args = parser.parse_args(argv)
    try:
        with open(args.result, "r", encoding="utf-8") as handle:
            got = deterministic_values(json.load(handle))
        if args.update:
            with open(args.pinned, "w", encoding="utf-8") as handle:
                json.dump(got, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print("pinned %d values -> %s" % (
                sum(len(flat) for flat in got["workloads"].values()),
                os.path.relpath(args.pinned)))
            return 0
        with open(args.pinned, "r", encoding="utf-8") as handle:
            pinned = json.load(handle)
        if pinned.get("schema") != PINNED_SCHEMA:
            raise ValueError("%s is not %s" % (args.pinned, PINNED_SCHEMA))
        lines = differences(pinned, got)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        print("check_e2e_counts: %s: %s" % (type(error).__name__, error))
        return 2
    for line in lines:
        print(line)
    if lines:
        print("%d deterministic values moved" % len(lines))
        return 1
    print("all %d deterministic values identical" % sum(
        len(flat) for flat in pinned["workloads"].values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
