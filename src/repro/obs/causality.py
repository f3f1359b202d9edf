"""Message-level causality analysis over a structured trace.

The network fabric stamps every message with a monotone ``msg_id`` and
emits paired ``net.send`` / ``net.deliver`` (or ``net.drop``) events
carrying it, plus the zxid for commit-path payloads (PROPOSE, ACK,
COMMIT, INFORM, SyncTxn).  :class:`CausalityGraph` joins those pairs
into a happens-before DAG:

- **message edges** — ``send(m) -> deliver(m)`` for every delivered
  message (annotated with the wire latency);
- **program-order edges** — consecutive events at the same node.

On top of the DAG it answers the questions the DSN'11 commit-path
analysis asks: which follower's ACK actually formed each quorum
(*quorum-critical*), which follower is systematically last
(*straggler*), and — for one transaction — the concrete causal chain
``PROPOSE send -> deliver -> follower fsync/ACK -> ACK deliver ->
quorum`` whose hop durations explain the commit latency
(:meth:`critical_path`).

The graph degrades gracefully: without ``net.*`` events (they are
off by default in ``repro trace``) the straggler/quorum analyses still
work from the protocol-level span data; only the per-hop message
chains need the wire events.
"""

from repro.obs.spans import build_spans


class CausalityGraph:
    """Happens-before DAG over one trace's events.

    Build with :meth:`from_events` (accepts a live ``tracer.events``
    list or a ``load_jsonl`` replay).
    """

    def __init__(self, events, sends, delivers, drops, spans):
        self.events = events
        self._sends = sends        # msg_id -> net.send event
        self._delivers = delivers  # msg_id -> net.deliver event
        self._drops = drops        # msg_id -> net.drop event
        self.spans = spans         # TxnSpans, propose order
        self._spans_by_zxid = {span.zxid: span for span in spans}

    @classmethod
    def from_events(cls, events):
        events = list(events)
        sends, delivers, drops = {}, {}, {}
        for event in events:
            msg_id = event.fields.get("msg_id")
            if msg_id is None:
                continue
            if event.kind == "net.send":
                sends[msg_id] = event
            elif event.kind == "net.deliver":
                delivers[msg_id] = event
            elif event.kind == "net.drop":
                drops[msg_id] = event
        return cls(events, sends, delivers, drops, build_spans(events))

    # ------------------------------------------------------------------
    # Message edges
    # ------------------------------------------------------------------

    def message_edges(self):
        """All delivered messages as ``(send_event, deliver_event)``."""
        return [
            (self._sends[msg_id], self._delivers[msg_id])
            for msg_id in sorted(self._delivers)
            if msg_id in self._sends
        ]

    def message_latency(self, msg_id):
        """Wire latency of one message, or None if it never arrived."""
        send = self._sends.get(msg_id)
        deliver = self._delivers.get(msg_id)
        if send is None or deliver is None:
            return None
        return deliver.t - send.t

    def dropped(self):
        """net.drop events that have a matching send (lost messages)."""
        return [
            self._drops[msg_id] for msg_id in sorted(self._drops)
            if msg_id in self._sends
        ]

    # ------------------------------------------------------------------
    # Transaction-level questions
    # ------------------------------------------------------------------

    def quorum_critical_counts(self):
        """{follower: times its ACK completed an ACK quorum}."""
        counts = {}
        for span in self.spans:
            src = span.quorum_src
            if src is not None and src != span.leader:
                counts[src] = counts.get(src, 0) + 1
        return counts

    def straggler_counts(self):
        """{follower: times it was the slowest ACK of a committed txn}."""
        counts = {}
        for span in self.spans:
            if not span.committed:
                continue
            peer, _lag = span.slowest_follower()
            if peer is not None:
                counts[peer] = counts.get(peer, 0) + 1
        return counts

    def transaction_messages(self, zxid):
        """Every send/deliver/drop about *zxid*, in time order."""
        zxid = tuple(zxid)
        out = []
        for table in (self._sends, self._delivers, self._drops):
            for event in table.values():
                raw = event.fields.get("zxid")
                if raw is not None and tuple(raw) == zxid:
                    out.append(event)
        out.sort(key=lambda event: event.t)
        return out

    def critical_path(self, zxid):
        """The causal hop chain that set *zxid*'s quorum time.

        Returns ``[(t, node, label), ...]`` from the leader's PROPOSE
        through the quorum-critical follower's fsync + ACK back to the
        quorum instant, or ``None`` when the trace lacks the pieces
        (no quorum yet, or the quorum was completed by the leader's own
        fsync, which involves no network hop).
        """
        zxid = tuple(zxid)
        span = self._spans_by_zxid.get(zxid)
        if span is None or span.quorum_t is None:
            return None
        critical = span.quorum_src
        if critical is None or critical == span.leader:
            return None
        hops = [(span.propose_t, span.leader, "propose")]
        propose_send = self._find_message(
            zxid, "Propose", span.leader, critical
        )
        if propose_send is not None:
            send, deliver = propose_send
            hops.append((send.t, span.leader, "propose.send"))
            if deliver is not None:
                hops.append((deliver.t, critical, "propose.deliver"))
        else:
            # Non-direct dissemination: the proposal reached the
            # quorum-critical follower through one or more relay hops.
            chain = self._relay_path(zxid, span.leader, critical)
            if chain:
                hops.append((chain[0][0].t, span.leader, "propose.send"))
                for index, (send, deliver) in enumerate(chain):
                    last = index == len(chain) - 1
                    if index > 0:
                        hops.append((send.t, send.node, "relay.send"))
                    if deliver is not None:
                        hops.append((
                            deliver.t, deliver.node,
                            "propose.deliver" if last else "relay.deliver",
                        ))
        ack_at = self._follower_ack_time(zxid, critical)
        if ack_at is not None:
            hops.append((ack_at, critical, "follower.durable+ack"))
        ack_msg = self._find_message(zxid, "Ack", critical, span.leader)
        if ack_msg is not None:
            send, deliver = ack_msg
            hops.append((send.t, critical, "ack.send"))
            if deliver is not None:
                hops.append((deliver.t, span.leader, "ack.deliver"))
        hops.append((span.quorum_t, span.leader, "quorum"))
        return hops

    def _find_message(self, zxid, type_name, src, dst):
        """(send, deliver-or-None) of the first matching message; for a
        cumulative ACK, the first from *src* that covers *zxid*."""
        for msg_id in sorted(self._sends):
            event = self._sends[msg_id]
            raw = event.fields.get("zxid")
            if (
                raw is not None and event.fields.get("type") == type_name
                and event.node == src and event.fields.get("dst") == dst
                and (tuple(raw) == zxid
                     or type_name == "Ack" and _covers(raw, zxid))
            ):
                return event, self._delivers.get(msg_id)
        return None

    def _relay_path(self, zxid, src, dst):
        """The (send, deliver) hop chain routing *zxid* from *src* to
        *dst* through Relay messages, or None if the trace has no such
        chain (the fabric tags Relay sends with the wrapped payload's
        zxid, so the hops join like any other commit-path message)."""
        edges = {}
        for msg_id in sorted(self._sends):
            event = self._sends[msg_id]
            raw = event.fields.get("zxid")
            if raw is None or tuple(raw) != zxid:
                continue
            if event.fields.get("type") not in ("Relay", "Propose"):
                continue
            edges.setdefault(event.node, []).append(
                (event.fields.get("dst"), event, self._delivers.get(msg_id))
            )
        queue = [(src, [])]
        seen = {src}
        while queue:
            node, path = queue.pop(0)
            for nxt, send, deliver in edges.get(node, ()):
                if nxt in seen:
                    continue
                hop_path = path + [(send, deliver)]
                if nxt == dst:
                    return hop_path
                seen.add(nxt)
                queue.append((nxt, hop_path))
        return None

    def _follower_ack_time(self, zxid, follower):
        for event in self.events:
            if (
                event.kind == "follower.ack" and event.node == follower
                and _covers(event.fields.get("zxid"), zxid)
            ):
                return event.t
        return None

    # ------------------------------------------------------------------
    # Digest
    # ------------------------------------------------------------------

    def summary(self):
        """JSON-safe digest: message counts + straggler/quorum tables."""
        latencies = [
            deliver.t - send.t for send, deliver in self.message_edges()
        ]
        return {
            "messages": {
                "sent": len(self._sends),
                "delivered": len(self._delivers),
                "dropped": len(self._drops),
                "mean_latency": (
                    sum(latencies) / len(latencies) if latencies else None
                ),
            },
            "quorum_critical": {
                str(peer): count
                for peer, count in sorted(
                    self.quorum_critical_counts().items()
                )
            },
            "stragglers": {
                str(peer): count
                for peer, count in sorted(self.straggler_counts().items())
            },
        }


def _covers(raw, zxid):
    """True if a cumulative ACK of *raw* covers *zxid*: same epoch, and
    no older (the first such ACK from a peer is the one that counted)."""
    return raw is not None and raw[0] == zxid[0] and raw[1] >= zxid[1]
