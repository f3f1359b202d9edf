#!/usr/bin/env python
"""Validate a JSONL trace file against the documented schema.

Usage::

    python scripts/validate_trace.py trace.jsonl

Checks every line against the format in docs/OBSERVABILITY.md:

- each line is a JSON object with exactly the keys
  ``t``, ``node``, ``kind``, ``fields``;
- ``t`` is a non-negative number, and timestamps never go backwards;
- ``node`` is an integer or null;
- ``kind`` is a non-empty dotted lowercase string from the documented
  catalogue (unknown kinds are an error — extend the catalogue and
  docs/OBSERVABILITY.md together);
- ``fields`` is a JSON object;
- commit-path kinds carry a well-formed ``zxid`` correlation field
  (``[epoch, counter]``, two non-negative integers) so the span
  builder (``repro profile``) can always correlate them;
- ``leader.ack`` (ACKs are cumulative) also carries ``first``, the
  oldest zxid the ACK newly covers: same epoch as ``zxid`` and no later
  than it;
- wire-level ``net.*`` kinds carry a positive integer ``msg_id`` so
  send/deliver/drop events pair up in the causality DAG;
- node-scoped kinds (everything except the cluster-wide
  ``fault.partition`` / ``fault.heal`` / ``fault.partition_oneway`` /
  ``fault.restore_links``) carry an integer ``node`` —
  an unattributed node-scoped event is useless to the health
  monitor's per-node detectors;
- per-node timestamps are monotonic too: events attributed to one
  node never go backwards relative to that node's own stream;
- a flight-recorder dump's ``recorder.dump`` marker — cluster-scoped,
  carrying a non-empty string ``reason`` — may appear at most once and
  only as the very last event, so a black box is recognisable by its
  tail and a truncated dump (marker missing or buried) fails loudly.

Exits 0 and prints a per-kind tally on success; exits 1 with the
offending line number on the first violation.
"""

import json
import re
import sys

# The documented event catalogue (docs/OBSERVABILITY.md).
KNOWN_KINDS = {
    "net.send", "net.deliver", "net.drop",
    "election.start", "election.decided",
    "leader.phase", "leader.newepoch", "leader.sync",
    "leader.established", "leader.propose",
    "leader.ack", "leader.quorum", "leader.commit", "leader.batch",
    "leader.plan",
    "follower.sync", "follower.active", "follower.ack", "follower.relay",
    "peer.state", "peer.looking", "peer.epoch", "peer.commit",
    "log.append", "log.durable", "log.flush",
    "fault.crash", "fault.recover", "fault.partition", "fault.heal",
    "fault.slow_disk", "fault.restore_disk",
    "fault.partition_oneway", "fault.restore_links", "fault.clock_skew",
    "snapshot.save", "compact.purge",
    "recorder.dump",
}

# Every kind is node-scoped except the cluster-wide fault events and
# the flight-recorder dump marker.
NODE_REQUIRED = KNOWN_KINDS - {
    "fault.partition", "fault.heal", "recorder.dump",
    "fault.partition_oneway", "fault.restore_links",
}

# Commit-path kinds must carry a zxid so spans can correlate them.
ZXID_REQUIRED = {
    "leader.propose", "leader.ack", "leader.quorum", "leader.commit",
    "follower.ack", "log.append", "log.durable", "peer.commit",
    "snapshot.save", "compact.purge",
}

# A cumulative ACK at the leader names the range it covers: first .. zxid.
RANGE_REQUIRED = {"leader.ack"}

# Wire-level kinds must carry the message id that pairs send/deliver.
MSG_ID_REQUIRED = {"net.send", "net.deliver", "net.drop"}

KIND_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _is_zxid(value):
    return (
        isinstance(value, list) and len(value) == 2
        and all(
            isinstance(part, int) and not isinstance(part, bool)
            and part >= 0
            for part in value
        )
    )


def validate(handle):
    """Yields nothing; raises ValueError at the first bad line."""
    counts = {}
    last_t = None
    last_t_by_node = {}
    marker_line = None
    for lineno, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError("line %d: not JSON: %s" % (lineno, exc))
        if not isinstance(record, dict):
            raise ValueError("line %d: not an object" % lineno)
        if set(record) != {"t", "node", "kind", "fields"}:
            raise ValueError(
                "line %d: keys %s != {t, node, kind, fields}"
                % (lineno, sorted(record))
            )
        t = record["t"]
        if not isinstance(t, (int, float)) or isinstance(t, bool) or t < 0:
            raise ValueError("line %d: bad timestamp %r" % (lineno, t))
        node = record["node"]
        if node is not None and (
            not isinstance(node, int) or isinstance(node, bool)
        ):
            raise ValueError("line %d: bad node %r" % (lineno, node))
        # Per-node monotonicity first: a regression within one node's
        # stream is the more precise diagnosis.
        if node is not None:
            node_last = last_t_by_node.get(node)
            if node_last is not None and t < node_last:
                raise ValueError(
                    "line %d: node %d time went backwards (%r < %r)"
                    % (lineno, node, t, node_last)
                )
            last_t_by_node[node] = t
        if last_t is not None and t < last_t:
            raise ValueError(
                "line %d: time went backwards (%r < %r)"
                % (lineno, t, last_t)
            )
        last_t = t
        kind = record["kind"]
        if not isinstance(kind, str) or not KIND_RE.match(kind):
            raise ValueError("line %d: bad kind %r" % (lineno, kind))
        if kind not in KNOWN_KINDS:
            raise ValueError(
                "line %d: undocumented kind %r (update the catalogue "
                "and docs/OBSERVABILITY.md)" % (lineno, kind)
            )
        if marker_line is not None:
            raise ValueError(
                "line %d: event after the recorder.dump marker "
                "(line %d) — the marker must be the final event"
                % (lineno, marker_line)
            )
        if node is None and kind in NODE_REQUIRED:
            raise ValueError(
                "line %d: node-scoped kind %s has node=null"
                % (lineno, kind)
            )
        fields = record["fields"]
        if not isinstance(fields, dict):
            raise ValueError(
                "line %d: fields is %r, not an object"
                % (lineno, type(fields).__name__)
            )
        if kind in ZXID_REQUIRED and not _is_zxid(fields.get("zxid")):
            raise ValueError(
                "line %d: %s needs zxid=[epoch, counter], got %r"
                % (lineno, kind, fields.get("zxid"))
            )
        if kind in RANGE_REQUIRED:
            first, last = fields.get("first"), fields["zxid"]
            if not (
                _is_zxid(first) and first[0] == last[0]
                and first[1] <= last[1]
            ):
                raise ValueError(
                    "line %d: %s needs first=[epoch, counter] in zxid's "
                    "epoch and <= zxid %r, got %r"
                    % (lineno, kind, last, first)
                )
        if kind == "recorder.dump":
            marker_line = lineno
            reason = fields.get("reason")
            if not isinstance(reason, str) or not reason:
                raise ValueError(
                    "line %d: recorder.dump needs a non-empty string "
                    "reason, got %r" % (lineno, reason)
                )
        if kind in MSG_ID_REQUIRED:
            msg_id = fields.get("msg_id")
            if (
                not isinstance(msg_id, int) or isinstance(msg_id, bool)
                or msg_id <= 0
            ):
                raise ValueError(
                    "line %d: %s needs a positive integer msg_id, got %r"
                    % (lineno, kind, msg_id)
                )
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python scripts/validate_trace.py TRACE.jsonl",
              file=sys.stderr)
        return 2
    path = argv[1]
    with open(path, "r", encoding="utf-8") as handle:
        try:
            counts = validate(handle)
        except ValueError as exc:
            print("%s: INVALID: %s" % (path, exc), file=sys.stderr)
            return 1
    total = sum(counts.values())
    if total == 0:
        print("%s: INVALID: empty trace" % path, file=sys.stderr)
        return 1
    print("%s: OK (%d events, %d kinds)" % (path, total, len(counts)))
    for kind in sorted(counts):
        print("  %-24s %d" % (kind, counts[kind]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
