"""Per-node and aggregate traffic accounting.

Sends are accumulated in one ``[messages, bytes]`` cell per
``(src, dst, payload type)`` and receives in one per node, so the fabric
pays a single lookup per message (it may hold on to a cell: cells are
never replaced).  Every per-node / per-type / per-pair counter is a view
summed from the cells when read, a fresh ``Counter`` each time.
"""

import collections

_MESSAGES, _BYTES = 0, 1  # positions in a cell


def _sent_view(part, group, doc):
    """Property summing cell[*part*] over the send cells, keyed by
    *group*(src, dst, payload type); a None key leaves the cell out."""
    def read(self):
        view = collections.Counter()
        for key, cell in self._sent.items():
            key = group(*key)
            if key is not None:
                view[key] += cell[part]
        return view
    return property(read, doc=doc)


def _received_view(part, doc):
    def read(self):
        return collections.Counter(
            {node: cell[part] for node, cell in self._received.items()})
    return property(read, doc=doc)


def _pair(src, dst, _payload_type):
    return None if dst is None else (src, dst)


class NetworkStats:
    """Counts messages and bytes sent/received per node."""

    def __init__(self):
        self._sent = {}      # (src, dst, payload type) -> [messages, bytes]
        self._received = {}  # node -> [messages, bytes]
        self.messages_dropped = 0
        self.drops_by_reason = collections.Counter()  # reason -> drops
        self.drops_by_node = collections.Counter()    # node -> drops

    messages_sent = _sent_view(
        _MESSAGES, lambda src, dst, kind: src, "node -> sends")
    bytes_sent = _sent_view(
        _BYTES, lambda src, dst, kind: src, "node -> bytes sent")
    by_type = _sent_view(
        _MESSAGES, lambda src, dst, kind: kind, "payload class -> sends")
    bytes_by_type = _sent_view(
        _BYTES, lambda src, dst, kind: kind, "payload class -> bytes")
    messages_by_pair = _sent_view(_MESSAGES, _pair, "(src, dst) -> sends")
    bytes_by_pair = _sent_view(_BYTES, _pair, "(src, dst) -> bytes")
    messages_received = _received_view(_MESSAGES, "node -> deliveries")
    bytes_received = _received_view(_BYTES, "node -> bytes delivered")

    def send_cell(self, node, payload_type=None, dst=None):
        """The ``[messages, bytes]`` cell that sends of *payload_type*
        from *node* to *dst* accumulate in."""
        key = (node, dst, payload_type)
        cell = self._sent.get(key)
        if cell is None:
            cell = self._sent[key] = [0, 0]
        return cell

    def record_send(self, node, size, payload_type=None, dst=None):
        cell = self.send_cell(node, payload_type, dst)
        cell[_MESSAGES] += 1
        cell[_BYTES] += size

    def egress_bytes(self, node):
        """Bytes *node* placed on its NIC (the dissemination-topology
        comparison metric: a leader-direct leader pays ∝ (n-1) here,
        a chain/ring leader stays ~flat)."""
        return self.bytes_sent[node]

    def record_receive(self, node, size):
        cell = self._received.get(node)
        if cell is None:
            cell = self._received[node] = [0, 0]
        cell[_MESSAGES] += 1
        cell[_BYTES] += size

    def record_drop(self, node=None, reason="unknown"):
        """Count one dropped message.

        *node* is the endpoint the drop is charged to (the dead source,
        or the unreachable destination); *reason* is a short stable
        string (``"src-dead"``, ``"unknown-dest"``, ``"partitioned"``,
        ``"loss"``, ``"dest-dead"``, ``"stale-incarnation"``).
        """
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1
        if node is not None:
            self.drops_by_node[node] += 1

    def total_bytes(self):
        """Total bytes placed on the wire."""
        return sum(cell[_BYTES] for cell in self._sent.values())

    def total_messages(self):
        """Total messages placed on the wire."""
        return sum(cell[_MESSAGES] for cell in self._sent.values())

    def snapshot(self):
        """A plain-dict copy, convenient for bench reports."""
        return {
            "bytes_sent": dict(self.bytes_sent),
            "bytes_received": dict(self.bytes_received),
            "messages_sent": dict(self.messages_sent),
            "messages_received": dict(self.messages_received),
            "by_type": dict(self.by_type),
            "bytes_by_type": dict(self.bytes_by_type),
            "bytes_by_pair": {
                "%s->%s" % pair: count
                for pair, count in self.bytes_by_pair.items()
            },
            "messages_by_pair": {
                "%s->%s" % pair: count
                for pair, count in self.messages_by_pair.items()
            },
            "messages_dropped": self.messages_dropped,
            "drops_by_reason": dict(self.drops_by_reason),
            "drops_by_node": dict(self.drops_by_node),
        }
