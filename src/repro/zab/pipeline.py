"""Leader-side request pipeline: pending requests, the outstanding
window (Phase 3 keeps **many transactions outstanding**) and the
per-event outbox that frames the broadcast stream.
"""

import collections

from repro.zab.messages import Frame


class PendingRequest:
    """A client write waiting to become a proposal."""

    __slots__ = ("request_id", "client", "origin", "op", "size")

    def __init__(self, request_id, client, origin, op, size):
        self.request_id = request_id
        self.client = client
        self.origin = origin
        self.op = op
        self.size = size

    def __repr__(self):
        return "PendingRequest(%s from %s)" % (self.request_id, self.origin)


class Batcher:
    """The per-event outbox of a leader's broadcast stream.

    The first PROPOSE or COMMIT of an event (with the ``(zxid,
    proposal)`` pairs a COMMIT covers, for observers) defers
    :meth:`flush` to the event's end, which disseminates a lone message
    as it is and two or more as one ``Frame``, in issue order.
    """

    def __init__(self, peer, disseminate):
        self._peer = peer
        self._disseminate = disseminate
        self._outbox = []         # (message, committed), issue order

    def add(self, message, committed=()):
        if not self._outbox:
            self._peer.sim.defer(self.flush)
        self._outbox.append((message, committed))

    def flush(self):
        """Send everything issued during this event, in order."""
        outbox, self._outbox = self._outbox, []
        if not outbox:
            return  # closed since the flush was deferred
        tracer = self._peer.tracer
        if tracer.active:
            tracer.emit("leader.batch", node=self._peer.peer_id,
                        n=len(outbox))
        if len(outbox) == 1:
            self._disseminate(*outbox[0])
        else:
            self._disseminate(
                Frame([message for message, _c in outbox]),
                [pair for _m, committed in outbox for pair in committed],
            )

    def close(self):
        """Drop the outbox: what a deposed leader issued dies with it."""
        self._outbox = []

    def __len__(self):
        return len(self._outbox)


class OutstandingWindow(collections.OrderedDict):
    """Ordered map zxid -> proposal with a convenience head accessor."""

    def head(self):
        """The oldest outstanding (zxid, proposal) pair, or None."""
        if not self:
            return None
        zxid = next(iter(self))
        return zxid, self[zxid]
