"""Paxos wire messages.

Classic nomenclature: phase 1a/1b (prepare/promise), phase 2a/2b
(accept/accepted), plus a learner-side DECIDE broadcast and leader
heartbeats.  Ballots are ``(round, peer_id)`` tuples, totally ordered.
"""

from repro.net.message import HEADER_BYTES


class P1a:
    """Prepare: scout asks acceptors to promise ballot, reporting any
    values accepted at instances >= low_instance."""

    __slots__ = ("ballot", "low_instance")

    def __init__(self, ballot, low_instance):
        self.ballot = ballot
        self.low_instance = low_instance


class P1b:
    """Promise (or rejection, when *promised* > the scout's ballot)."""

    __slots__ = ("ballot", "promised", "accepted")

    def __init__(self, ballot, promised, accepted):
        self.ballot = ballot        # the ballot this replies to
        self.promised = promised    # acceptor's current promise
        self.accepted = accepted    # {instance: (ballot, txn)}

    def wire_size(self):
        return HEADER_BYTES + 24 + 48 * len(self.accepted)


class P2a:
    """Accept: leader proposes *txn* at *instance* under *ballot*."""

    __slots__ = ("ballot", "instance", "txn", "size")

    def __init__(self, ballot, instance, txn, size):
        self.ballot = ballot
        self.instance = instance
        self.txn = txn
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 24 + self.size


class P2b:
    """Accepted (or rejection via higher *promised*)."""

    __slots__ = ("ballot", "instance", "promised")

    def __init__(self, ballot, instance, promised):
        self.ballot = ballot
        self.instance = instance
        self.promised = promised


class Decide:
    """Learner broadcast: *txn* is chosen at *instance*."""

    __slots__ = ("instance", "txn", "size")

    def __init__(self, instance, txn, size):
        self.instance = instance
        self.txn = txn
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 16 + self.size


class LearnRequest:
    """Lagging learner asks a peer to retransmit decided instances."""

    __slots__ = ("from_instance",)

    def __init__(self, from_instance):
        self.from_instance = from_instance


class Heartbeat:
    """Leader liveness signal, carrying the decided frontier."""

    __slots__ = ("ballot", "decided_upto")

    def __init__(self, ballot, decided_upto):
        self.ballot = ballot
        self.decided_upto = decided_upto


class PaxosTxn:
    """A replicated delta with its originating primary identity.

    *epoch* is the ballot round of the primary that created the value;
    re-proposals by later leaders keep the original identity, which is
    what lets the PO checker attribute deliveries to primaries.
    """

    __slots__ = ("txn_id", "epoch", "seq", "body", "size")

    def __init__(self, txn_id, epoch, seq, body, size):
        self.txn_id = txn_id
        self.epoch = epoch
        self.seq = seq
        self.body = body
        self.size = size

    def wire_size(self):
        return 24 + self.size

    def __repr__(self):
        return "PaxosTxn(%s e%d.%d %r)" % (
            self.txn_id, self.epoch, self.seq, self.body,
        )
