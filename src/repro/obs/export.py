"""Export traces to the Chrome trace-event format (Perfetto-loadable).

:func:`to_chrome_trace` maps a repro trace — live ``tracer.events``,
a ``load_jsonl`` replay, or a flight-recorder snapshot — onto the
Chrome ``traceEvents`` JSON that https://ui.perfetto.dev (and
``chrome://tracing``) renders as per-process timelines:

- **one process per node** (plus a ``cluster`` process for node-less
  events such as ``fault.partition`` and ``recorder.dump``), named via
  ``"M"`` metadata records;
- **commit-path slices**: every committed :class:`~repro.obs.spans.
  TxnSpan` becomes nested ``"X"`` complete events on the leader's
  ``commit path`` track (``txn`` enclosing ``fsync`` / ``quorum-wait``
  / ``commit-gap``), with a ``deliver`` slice on each follower from
  COMMIT to that follower's delivery;
- **wire and relay hops**: each ``net.send``/``net.deliver`` pair
  becomes an async ``"b"``/``"e"`` span keyed by ``msg_id`` (category
  ``net``), beginning on the sender and ending on the receiver — in
  Perfetto these draw the message in flight, including every ``Relay``
  hop of chain/tree/ring dissemination; ``net.drop`` becomes an
  instant at the drop site;
- **everything else** (elections, faults, role changes) as instant
  events on the owning node's ``events`` track.

Timestamps are virtual seconds scaled to microseconds (the unit the
format mandates).  Output is deterministic for a deterministic trace.
"""

import json

from repro.common.util import atomic_write
from repro.obs.spans import build_spans
from repro.obs.trace import Tracer

#: Protocol kinds consumed into commit-path slices (not re-emitted as
#: instants — the slice view already carries them).
_SPAN_KINDS = frozenset((
    "leader.propose", "log.durable", "leader.ack", "leader.quorum",
    "leader.commit", "peer.commit",
))

_CLUSTER = "cluster"


def to_chrome_trace(events):
    """Build the Chrome trace-event dict for *events*.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` —
    ``json.dump`` it (or use :func:`dump_chrome_trace`) and load the
    file in ui.perfetto.dev.
    """
    if isinstance(events, Tracer):
        events = events.events
    events = list(events)

    pids = _process_ids(events)
    out = _metadata_records(pids, events)

    for span in build_spans(events):
        out.extend(_span_slices(span, pids))

    sends = {}
    for event in events:
        kind = event.kind
        if kind == "net.send":
            msg_id = event.fields.get("msg_id")
            if msg_id is not None:
                sends[msg_id] = event
            out.append(_async_net(event, pids, "b"))
        elif kind == "net.deliver":
            record = _async_net(event, pids, "e")
            send = sends.get(event.fields.get("msg_id"))
            if send is not None:
                record["name"] = send.fields.get("type", "msg")
            out.append(record)
        elif kind == "net.drop":
            out.append(_instant(event, pids, tid=2, cat="net"))
        elif kind not in _SPAN_KINDS:
            out.append(_instant(event, pids, tid=0))

    out.sort(key=_sort_key)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def dump_chrome_trace(events, destination):
    """Write :func:`to_chrome_trace` output as JSON (atomically for
    paths, like :func:`~repro.obs.trace.dump_jsonl`).  Returns the
    number of trace-event records written."""
    trace = to_chrome_trace(events)
    if isinstance(destination, (str, bytes)):
        with atomic_write(destination) as handle:
            json.dump(trace, handle, sort_keys=True)
    else:
        json.dump(trace, destination, sort_keys=True)
    return len(trace["traceEvents"])


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def _process_ids(events):
    """Deterministic node -> pid mapping; pid 0 is the cluster."""
    nodes = sorted(
        {event.node for event in events if event.node is not None},
        key=lambda node: (isinstance(node, str), str(node)),
    )
    pids = {None: 0}
    for index, node in enumerate(nodes):
        pids[node] = index + 1
    return pids


def _metadata_records(pids, events):
    spanned = any(event.kind in _SPAN_KINDS for event in events)
    wired = any(event.kind.startswith("net.") for event in events)
    out = []
    for node, pid in sorted(pids.items(), key=lambda item: item[1]):
        name = _CLUSTER if node is None else "node %s" % (node,)
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        out.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
        threads = [(0, "events")]
        if spanned and node is not None:
            threads.append((1, "commit path"))
        if wired and node is not None:
            threads.append((2, "net"))
        for tid, label in threads:
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": label},
            })
    return out


def _us(t):
    return round(t * 1e6, 3)


def _instant(event, pids, tid, cat=None):
    record = {
        "ph": "i", "s": "t", "name": event.kind,
        "pid": pids.get(event.node, 0), "tid": tid,
        "ts": _us(event.t), "args": _safe_args(event.fields),
    }
    if cat is not None:
        record["cat"] = cat
    return record


def _async_net(event, pids, phase):
    fields = event.fields
    return {
        "ph": phase, "cat": "net",
        "id": str(fields.get("msg_id")),
        "name": fields.get("type", "msg"),
        "pid": pids.get(event.node, 0), "tid": 2,
        "ts": _us(event.t), "args": _safe_args(fields),
    }


def _span_slices(span, pids):
    """Nested commit-path slices for one committed transaction."""
    if not span.committed:
        return []
    label = "%s:%s" % span.zxid
    leader_pid = pids.get(span.leader, 0)
    out = [_slice(
        "txn %s" % label, leader_pid, span.propose_t, span.commit_t,
        args={"zxid": list(span.zxid), "size": span.size},
    )]
    if span.leader_durable_t is not None:
        out.append(_slice(
            "fsync", leader_pid, span.propose_t, span.leader_durable_t,
        ))
    if span.quorum_t is not None:
        start = span.propose_t
        if span.leader_durable_t is not None:
            start = min(span.leader_durable_t, span.quorum_t)
        out.append(_slice(
            "quorum-wait", leader_pid, start, span.quorum_t,
            args={"quorum_src": span.quorum_src},
        ))
        out.append(_slice(
            "commit-gap", leader_pid, span.quorum_t, span.commit_t,
        ))
    for peer, deliver_t in sorted(span.delivers.items(), key=str):
        if peer == span.leader or deliver_t < span.commit_t:
            continue
        out.append(_slice(
            "deliver %s" % label, pids.get(peer, 0),
            span.commit_t, deliver_t, args={"zxid": list(span.zxid)},
        ))
    return out


def _slice(name, pid, start, end, args=None):
    record = {
        "ph": "X", "cat": "txn", "name": name, "pid": pid, "tid": 1,
        "ts": _us(start), "dur": max(_us(end) - _us(start), 0.0),
    }
    if args:
        record["args"] = _safe_args(args)
    return record


def _safe_args(fields):
    return {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in fields.items()
    }


def _sort_key(record):
    # Metadata first, then time order; longer slices before shorter at
    # the same instant (so viewers nest "txn" around its stages), with
    # ph/name breaking any remaining tie deterministically.
    return (
        0 if record["ph"] == "M" else 1,
        record.get("ts", 0),
        -record.get("dur", 0.0),
        record["pid"], record["tid"],
        record["ph"], record["name"],
    )
