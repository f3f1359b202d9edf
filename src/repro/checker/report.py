"""Human-readable rendering of traces and property reports.

Used by the CLI's fuzz command and handy when a randomized test fails:
``render_report`` shows the verdict per property, and
``render_history`` prints the union history with epochs and primaries,
which is usually enough to see *where* an ordering broke.
"""

ALL_PROPERTIES = (
    "integrity",
    "total_order",
    "agreement",
    "local_primary_order",
    "global_primary_order",
    "primary_integrity",
)


def render_report(report, max_violations=10):
    """Multi-line text verdict for a :class:`PropertyReport`."""
    lines = []
    violated = report.violated_properties()
    for prop in ALL_PROPERTIES:
        verdict = "VIOLATED" if prop in violated else "ok"
        lines.append("  %-22s %s" % (prop, verdict))
    stats = report.stats
    lines.append(
        "  trace: %d broadcasts, %d deliveries, %d processes, epochs %s"
        % (
            stats.get("broadcasts", 0),
            stats.get("deliveries", 0),
            stats.get("processes", 0),
            stats.get("epochs", []),
        )
    )
    shown = report.violations[:max_violations]
    for violation in shown:
        lines.append("  * [%s] %s" % (violation.prop, violation.message))
    hidden = len(report.violations) - len(shown)
    if hidden > 0:
        lines.append("  ... and %d more violations" % hidden)
    return "\n".join(lines)


def render_history(trace, limit=50):
    """The union delivery history, one line per position."""
    by_position = {}
    for row, position in enumerate(trace.delivery_column("position")):
        by_position.setdefault(position, row)
    primaries = dict(zip(trace.broadcast_column("epoch"),
                         trace.broadcast_column("primary")))
    lines = []
    for position in sorted(by_position)[:limit]:
        event = trace.delivery(by_position[position])
        lines.append(
            "  %4d  %-12s epoch %-3d primary %-4s %s"
            % (
                position,
                str(event.zxid),
                event.epoch,
                primaries.get(event.epoch, "?"),
                event.txn_id,
            )
        )
    if len(by_position) > limit:
        lines.append("  ... %d more positions" % (len(by_position) - limit))
    return "\n".join(lines) if lines else "  (no deliveries)"
