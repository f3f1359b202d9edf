#!/usr/bin/env python3
"""Compare two full results of ``run.py --json``: base A, candidate B.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A *with its base*, the bound, and a verdict:

``better`` / ``worse``
    the medians differ by more than the bound, in that direction;
``same``
    they differ by no more than the bound;
``unresolved``
    the run-to-run spread (inter-quartile range over the median, the
    larger of the two sides) is wider than the bound, so a difference
    of the bound's size could not have been seen.

Host metrics use the bounds of ``BENCHMARK.json``.  Simulated results
are single deterministic values (no quartiles); they are compared with
the bounds in ``metrics.SIM_RESULTS`` and any change at all is listed,
because a host-only optimisation must leave them bit-identical.
``failed_op_share`` may not rise by more than 0.001 absolute.

Exit code 1 on any ``worse`` row or a ``failed_op_share`` beyond its
bound.  A smoke result is never compared with a full one, nor results
with different seeds.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402


class IncomparableError(Exception):
    """The two results do not measure the same thing."""


def _spread(entry):
    return stats.iqr_share(entry["samples"])


def verdict(base, candidate, better, bound, spread=0.0):
    """Judge one metric; returns (verdict, ratio or None)."""
    if base is None or candidate is None:
        return ("same" if base == candidate else "unresolved"), None
    if base == 0:
        if candidate == 0:
            return "same", None
        improved = (candidate > 0) == (better == "higher")
        return ("better" if improved else "worse"), None
    ratio = candidate / base
    change = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if spread > bound and abs(change) <= spread:
        return "unresolved", ratio
    if change < -bound:
        return "worse", ratio
    if change > bound:
        return "better", ratio
    return "same", ratio


def compare(base, candidate):
    """Rows ``(workload, metric, kind, a, b, ratio, bound, verdict)``."""
    for key in ("smoke", "seed"):
        if base.get(key) != candidate.get(key):
            raise IncomparableError(
                "results differ in %r: %r vs %r"
                % (key, base.get(key), candidate.get(key)))
    rows = []
    for workload, _why in metrics.WORKLOADS:
        a = base["workloads"][workload]["untraced"]
        b = candidate["workloads"][workload]["untraced"]
        for name, _unit, better, bound, _definition in metrics.END_TO_END:
            ea, eb = a["end_to_end"][name], b["end_to_end"][name]
            spread = max(_spread(ea), _spread(eb))
            outcome, ratio = verdict(
                ea["median"], eb["median"], better, bound, spread)
            rows.append((workload, name, "host", ea, eb, ratio, bound,
                         outcome))
        for name, _unit, better, bound, applies, _d in metrics.SIM_RESULTS:
            if workload not in applies:
                continue
            va, vb = a["sim"].get(name), b["sim"].get(name)
            if name == "failed_op_share":
                limit = metrics.FAILED_OP_SHARE_ABSOLUTE_BOUND
                if vb - va > limit:
                    outcome = "worse"
                elif va - vb > limit:
                    outcome = "better"
                else:
                    outcome = "same"
                ratio, bound = None, limit
            else:
                outcome, ratio = verdict(va, vb, better, bound)
            rows.append((workload, name, "sim", va, vb, ratio, bound,
                         outcome))
    return rows


def _cell(value):
    if isinstance(value, dict):
        return "%.5g [%.5g, %.5g]" % (
            value["median"], value["q1"], value["q3"])
    return "null" if value is None else "%.6g" % value


def render(rows):
    lines = ["%-13s %-26s %-4s %-30s %-30s %-16s %-7s %s" % (
        "workload", "metric", "kind", "A (base)", "B", "B/A", "bound",
        "verdict")]
    for workload, name, kind, a, b, ratio, bound, outcome in rows:
        changed = "" if kind == "host" or a == b else "  (changed)"
        lines.append("%-13s %-26s %-4s %-30s %-30s %-16s %-7s %s%s" % (
            workload, name, kind, _cell(a), _cell(b),
            "-" if ratio is None else "%.4f of A" % ratio,
            "%g" % bound, outcome, changed))
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as first, open(argv[1]) as second:
        base, candidate = json.load(first), json.load(second)
    try:
        rows = compare(base, candidate)
    except IncomparableError as error:
        print("refusing to compare: %s" % error, file=sys.stderr)
        return 2
    print(render(rows))
    verdicts = [row[-1] for row in rows]
    print("%d rows: %s" % (len(rows), ", ".join(
        "%d %s" % (verdicts.count(kind), kind)
        for kind in ("better", "same", "worse", "unresolved"))))
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
