"""Leader-side request pipeline: pending requests and batching.

Zab's headline performance feature is keeping **many transactions
outstanding** (Phase 3 is a pipelined two-phase commit).  The leader
additionally batches incoming requests before handing them to the
proposal path, so consecutive proposals coalesce into one log flush
(group commit) and back-to-back network sends.  ``max_batch=1`` (the
default) disables batching, and only tests raise it.  Experiment E9
sweeps fsync latency x group commit, which
:class:`~repro.storage.txnlog.TxnLog` does whatever the batch size.
"""

import collections

from repro.obs.trace import NULL_TRACER


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
    """Accumulates requests and flushes them in groups.

    Flush triggers: the batch reaches *max_batch* requests, or
    *batch_delay* seconds pass since the first queued request.  A
    ``max_batch`` of 1 (or a zero delay with any batch size) flushes
    immediately and never arms a timer.
    """

    def __init__(self, peer, max_batch, batch_delay, flush_fn):
        self._peer = peer
        self._max_batch = max_batch
        self._batch_delay = batch_delay
        self._flush_fn = flush_fn
        self._buffer = []
        self._timer = None
        self._first_add_at = None

    def add(self, request):
        if not self._buffer:
            self._first_add_at = self._peer.sim.now
        self._buffer.append(request)
        if len(self._buffer) >= self._max_batch or self._batch_delay <= 0:
            self.flush()
        elif self._timer is None:
            self._timer = self._peer.set_timer(
                self._batch_delay, self._on_timer
            )

    def _on_timer(self):
        self._timer = None
        self.flush()

    def flush(self):
        """Hand everything buffered to the flush function, in order."""
        if self._timer is not None:
            self._peer.cancel_timer(self._timer)
            self._timer = None
        batch, self._buffer = self._buffer, []
        if batch:
            # getattr: unit tests drive the batcher with a bare stub
            # peer that has no tracer wired up.
            tracer = getattr(self._peer, "tracer", NULL_TRACER)
            if tracer.active:
                tracer.emit(
                    "leader.batch", node=self._peer.peer_id,
                    n=len(batch),
                    held=self._peer.sim.now - self._first_add_at,
                )
            self._first_add_at = None
            self._flush_fn(batch)

    def close(self):
        """Drop buffered requests and cancel the timer.

        Called when the leader loses leadership (or crashes): whatever
        was buffered must die with the epoch — handing it to the flush
        function here would leak requests into the next leader's term.
        """
        if self._timer is not None:
            self._peer.cancel_timer(self._timer)
            self._timer = None
        self._buffer = []
        self._first_add_at = None

    def __len__(self):
        return len(self._buffer)


class OutstandingWindow(collections.OrderedDict):
    """Ordered map zxid -> proposal with a convenience head accessor."""

    def head(self):
        """The oldest outstanding (zxid, proposal) pair, or None."""
        if not self:
            return None
        zxid = next(iter(self))
        return zxid, self[zxid]
