"""Per-transaction commit-path spans reconstructed from a trace.

Zab's commit path is ``propose -> log/fsync -> quorum ACK -> COMMIT ->
deliver``; the DSN'11 evaluation (and protocol-comparison work such as
"Vive la Différence") reasons about performance entirely in terms of
where time goes between those stages.  :func:`build_spans` correlates
the flat :class:`~repro.obs.trace.Tracer` event stream by zxid into one
:class:`TxnSpan` per proposed transaction, each carrying the full stage
anatomy:

- ``propose_t`` — the leader assigned the zxid (``leader.propose``);
- ``leader_durable_t`` — the leader's own log fsync completed
  (``log.durable`` at the leader node);
- ``acks`` — per-peer ACK arrival times at the leader (``leader.ack``,
  including the leader's self-ack).  ACKs are cumulative: one event
  covers ``first`` through ``zxid``, and counts for every span in it;
- ``quorum_t``/``quorum_src`` — the instant the ACK quorum formed and
  the peer whose ACK completed it (``leader.quorum``);
- ``commit_t`` — COMMIT fan-out started and the leader delivered
  (``leader.commit``);
- ``delivers`` — per-node delivery times (``peer.commit``).

Only the cheap always-on protocol kinds are required; wire-level
``net.*`` events are not consulted (the causality DAG in
:mod:`repro.obs.causality` uses those).  Spans therefore build
identically from a live tracer or from a JSONL file replayed through
:func:`~repro.obs.trace.load_jsonl`.
"""

from repro.obs.metrics import StreamingHistogram

#: Stage keys reported by :meth:`TxnSpan.stages` (and thus the keys of
#: :func:`stage_histograms` / the ``stages`` block of a profile).
STAGE_KEYS = (
    "log_fsync",       # propose -> leader's own record durable
    "quorum_wait",     # leader durable -> ACK quorum formed
    "commit_gap",      # quorum formed -> COMMIT sent (in-order wait)
    "commit_latency",  # propose -> COMMIT (leader delivery)
    "deliver_fanout",  # COMMIT -> slowest observed follower delivery
    "e2e",             # propose -> slowest observed delivery
)


class TxnSpan:
    """The commit-path anatomy of one broadcast transaction."""

    __slots__ = ("zxid", "leader", "size", "propose_t", "leader_durable_t",
                 "quorum_t", "quorum_src", "commit_t", "acks", "delivers")

    def __init__(self, zxid, leader, propose_t, size=None):
        self.zxid = zxid                # (epoch, counter) tuple
        self.leader = leader
        self.size = size
        self.propose_t = propose_t
        self.leader_durable_t = None
        self.quorum_t = None
        self.quorum_src = None
        self.commit_t = None
        self.acks = {}                  # peer -> ACK arrival at leader
        self.delivers = {}              # peer -> peer.commit time

    @property
    def epoch(self):
        return self.zxid[0]

    @property
    def committed(self):
        """True once the trace covered this transaction's COMMIT."""
        return self.commit_t is not None

    def ack_lag(self, peer):
        """propose -> this peer's ACK arriving back at the leader."""
        if peer not in self.acks:
            return None
        return self.acks[peer] - self.propose_t

    def follower_ack_lags(self):
        """{follower: lag} for every non-leader ACK."""
        return {
            peer: t - self.propose_t
            for peer, t in self.acks.items()
            if peer != self.leader
        }

    def slowest_follower(self):
        """(follower, ack lag) of the slowest acknowledging follower."""
        lags = self.follower_ack_lags()
        if not lags:
            return None, None
        peer = max(lags, key=lambda p: (lags[p], p))
        return peer, lags[peer]

    def quorum_wait_fraction(self):
        """Share of commit latency spent waiting for the ACK quorum
        beyond the leader's own fsync (the network/follower component)."""
        stages = self.stages()
        total = stages.get("commit_latency")
        wait = stages.get("quorum_wait")
        if not total or wait is None:
            return None
        return wait / total

    def stages(self):
        """Per-stage durations (seconds); keys from :data:`STAGE_KEYS`.

        Stages the trace did not cover are absent.  ``quorum_wait``
        measures from the leader's fsync completion (or the propose, if
        the quorum formed before the leader's own disk) to the quorum
        instant, so it isolates time spent on followers + network.
        """
        out = {}
        t0 = self.propose_t
        if self.leader_durable_t is not None:
            out["log_fsync"] = self.leader_durable_t - t0
        if self.quorum_t is not None:
            basis = (
                min(self.leader_durable_t, self.quorum_t)
                if self.leader_durable_t is not None else t0
            )
            out["quorum_wait"] = self.quorum_t - basis
        if self.commit_t is not None:
            if self.quorum_t is not None:
                out["commit_gap"] = self.commit_t - self.quorum_t
            out["commit_latency"] = self.commit_t - t0
            follower_delivers = [
                t for peer, t in self.delivers.items()
                if peer != self.leader
            ]
            if follower_delivers:
                out["deliver_fanout"] = max(follower_delivers) - self.commit_t
                out["e2e"] = max(
                    max(follower_delivers), self.commit_t
                ) - t0
            else:
                out["e2e"] = out["commit_latency"]
        return out

    def to_dict(self):
        """JSON-safe form (the ``repro profile --json`` span records)."""
        slowest_peer, slowest_lag = self.slowest_follower()
        return {
            "zxid": list(self.zxid),
            "leader": self.leader,
            "size": self.size,
            "propose_t": self.propose_t,
            "leader_durable_t": self.leader_durable_t,
            "quorum_t": self.quorum_t,
            "quorum_src": self.quorum_src,
            "commit_t": self.commit_t,
            "acks": {str(peer): t for peer, t in sorted(self.acks.items())},
            "delivers": {
                str(peer): t for peer, t in sorted(self.delivers.items())
            },
            "stages": self.stages(),
            "quorum_wait_fraction": self.quorum_wait_fraction(),
            "slowest_follower": slowest_peer,
            "slowest_follower_ack_lag": slowest_lag,
        }

    def __repr__(self):
        return "<TxnSpan %r %s>" % (
            self.zxid, "committed" if self.committed else "outstanding"
        )


def build_spans(events):
    """Correlate *events* by zxid into :class:`TxnSpan` objects.

    *events* is any iterable of :class:`~repro.obs.trace.TraceEvent`
    (a live ``tracer.events`` list or a ``load_jsonl`` replay).  Returns
    spans in propose order.  Events about zxids whose ``leader.propose``
    is not in the trace (e.g. re-synced history from before the capture
    window) are ignored — a span without its propose time has no anchor
    to measure stages from.
    """
    spans = {}
    order = []
    for event in events:
        kind = event.kind
        if kind == "leader.propose":
            zxid = _zxid_key(event.fields.get("zxid"))
            if zxid is None or zxid in spans:
                continue
            spans[zxid] = TxnSpan(
                zxid, event.node, event.t, size=event.fields.get("size")
            )
            order.append(zxid)
            continue
        if kind not in _CORRELATED_KINDS:
            continue
        zxid = _zxid_key(event.fields.get("zxid"))
        if kind == "leader.ack":
            src = event.fields.get("src")
            for key in covered_zxids(event.fields):
                span = spans.get(key)
                if span is not None and src not in span.acks:
                    span.acks[src] = event.t
            continue
        span = spans.get(zxid)
        if span is None:
            continue
        if kind == "log.durable":
            if event.node == span.leader and span.leader_durable_t is None:
                span.leader_durable_t = event.t
        elif kind == "leader.quorum":
            if span.quorum_t is None:
                span.quorum_t = event.t
                span.quorum_src = event.fields.get("src")
        elif kind == "leader.commit":
            if span.commit_t is None:
                span.commit_t = event.t
        elif kind == "peer.commit":
            if event.node is not None and event.node not in span.delivers:
                span.delivers[event.node] = event.t
    return [spans[zxid] for zxid in order]


_CORRELATED_KINDS = frozenset((
    "log.durable", "leader.ack", "leader.quorum", "leader.commit",
    "peer.commit",
))


def covered_zxids(fields):
    """The zxids a cumulative ACK event covers: ``first`` .. ``zxid``
    of one epoch (just ``zxid`` when ``first`` is absent)."""
    last = _zxid_key(fields.get("zxid"))
    if last is None:
        return []
    first = _zxid_key(fields.get("first")) or last
    return [(last[0], counter) for counter in range(first[1], last[1] + 1)]


def _zxid_key(raw):
    """Normalise a zxid field (tuple or JSON list) to a hashable tuple."""
    if raw is None:
        return None
    try:
        epoch, counter = raw
    except (TypeError, ValueError):
        return None
    return (epoch, counter)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def stage_histograms(spans, floor=1e-7, growth=1.04):
    """One :class:`StreamingHistogram` per stage over committed spans."""
    histograms = {
        key: StreamingHistogram(floor=floor, growth=growth)
        for key in STAGE_KEYS
    }
    for span in spans:
        if not span.committed:
            continue
        for key, value in span.stages().items():
            histograms[key].observe(value)
    return histograms


def profile_trace(events, top=5):
    """The full profile digest of a trace, as one JSON-safe dict.

    This is the analysis behind ``repro profile``: per-stage latency
    sketches (p50/p99 via :class:`StreamingHistogram`), quorum-wait
    fractions, per-follower ACK behaviour (mean/p99 lag, how often each
    follower was the quorum-completing ACK vs. the straggler), and the
    *top* slowest committed transactions with their stage breakdowns.
    """
    spans = build_spans(events)
    committed = [span for span in spans if span.committed]
    summary = {
        "transactions": len(spans),
        "committed": len(committed),
        "outstanding": len(spans) - len(committed),
        "stages": {
            key: histogram.snapshot()
            for key, histogram in stage_histograms(spans).items()
        },
        "followers": _follower_summary(committed),
        "quorum_wait_fraction": _fraction_summary(committed),
        "slowest": [
            span.to_dict()
            for span in sorted(
                committed,
                key=lambda s: s.stages().get("commit_latency", 0.0),
                reverse=True,
            )[:top]
        ],
    }
    if committed:
        first = min(span.propose_t for span in committed)
        last = max(span.commit_t for span in committed)
        window = last - first
        summary["window_s"] = window
        summary["throughput_ops"] = (
            len(committed) / window if window > 0 else None
        )
    return summary


def _fraction_summary(committed):
    fractions = [
        fraction for fraction in (
            span.quorum_wait_fraction() for span in committed
        ) if fraction is not None
    ]
    if not fractions:
        return {"count": 0}
    return {
        "count": len(fractions),
        "mean": sum(fractions) / len(fractions),
        "max": max(fractions),
    }


def _follower_summary(committed):
    """Per-follower ACK anatomy across committed spans."""
    lags = {}          # follower -> StreamingHistogram of ack lags
    quorum_critical = {}
    straggler = {}
    for span in committed:
        for peer, lag in span.follower_ack_lags().items():
            lags.setdefault(peer, StreamingHistogram()).observe(lag)
        if span.quorum_src is not None and span.quorum_src != span.leader:
            quorum_critical[span.quorum_src] = (
                quorum_critical.get(span.quorum_src, 0) + 1
            )
        slowest_peer, _lag = span.slowest_follower()
        if slowest_peer is not None:
            straggler[slowest_peer] = straggler.get(slowest_peer, 0) + 1
    return {
        str(peer): {
            "ack_lag": lags[peer].snapshot(),
            "quorum_critical": quorum_critical.get(peer, 0),
            "straggler": straggler.get(peer, 0),
        }
        for peer in sorted(lags)
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_profile(summary):
    """Human-readable tables for a :func:`profile_trace` summary."""
    # Imported here: repro.bench pulls in the harness, which imports
    # repro.obs — a module-level import would be circular.
    from repro.bench.formats import render_table

    lines = [
        "transactions: %d proposed, %d committed, %d outstanding"
        % (summary["transactions"], summary["committed"],
           summary["outstanding"])
    ]
    if summary.get("throughput_ops"):
        lines.append(
            "window:       %.3fs simulated, %.0f commits/s"
            % (summary["window_s"], summary["throughput_ops"])
        )
    fraction = summary.get("quorum_wait_fraction", {})
    if fraction.get("count"):
        lines.append(
            "quorum wait:  %.0f%% of commit latency on average "
            "(max %.0f%%)"
            % (fraction["mean"] * 100, fraction["max"] * 100)
        )
    lines.append("")

    rows = []
    for key in STAGE_KEYS:
        snap = summary["stages"].get(key, {"count": 0})
        if not snap.get("count"):
            rows.append((key, 0, None, None, None, None))
            continue
        rows.append((
            key, snap["count"], _ms(snap["p50"]), _ms(snap["p99"]),
            _ms(snap["mean"]), _ms(snap["max"]),
        ))
    lines.append(render_table(
        ["stage", "n", "p50 (ms)", "p99 (ms)", "mean (ms)", "max (ms)"],
        rows, title="commit-path stage breakdown",
    ))
    lines.append("")

    followers = summary.get("followers", {})
    if followers:
        rows = []
        for peer, data in followers.items():
            snap = data["ack_lag"]
            rows.append((
                peer, snap.get("count", 0), _ms(snap.get("p50")),
                _ms(snap.get("p99")), data["quorum_critical"],
                data["straggler"],
            ))
        lines.append(render_table(
            ["follower", "acks", "ack lag p50 (ms)", "ack lag p99 (ms)",
             "quorum-critical", "straggler"],
            rows,
            title="per-follower ACK anatomy "
                  "(quorum-critical = completed the quorum; "
                  "straggler = slowest ACK)",
        ))
        lines.append("")

    slowest = summary.get("slowest", [])
    if slowest:
        rows = []
        for record in slowest:
            stages = record["stages"]
            rows.append((
                "%d:%d" % tuple(record["zxid"]),
                _ms(stages.get("commit_latency")),
                _ms(stages.get("log_fsync")),
                _ms(stages.get("quorum_wait")),
                _ms(stages.get("commit_gap")),
                "-" if record["slowest_follower"] is None
                else "%s (%s ms)" % (
                    record["slowest_follower"],
                    _ms(record["slowest_follower_ack_lag"]),
                ),
            ))
        lines.append(render_table(
            ["zxid", "commit (ms)", "fsync (ms)", "quorum wait (ms)",
             "commit gap (ms)", "slowest ACK"],
            rows, title="slowest committed transactions",
        ))
    return "\n".join(lines)


def _ms(value):
    return None if value is None else "%.3f" % (value * 1e3)
