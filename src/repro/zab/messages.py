"""Protocol messages.

Naming follows the paper (CEPOCH/NEWEPOCH/ACK-E/NEWLEADER/ACK-LD/COMMIT-LD,
PROPOSE/ACK/COMMIT) with the ZooKeeper learner-handshake framing
(FOLLOWERINFO, UPTODATE, DIFF/TRUNC/SNAP) for the synchronisation phase.
All classes are plain data holders; ``wire_size`` feeds the network's
bandwidth model where payload bytes matter.
"""

from repro.net.message import HEADER_BYTES
from repro.zab.dissemination import plan_members

# --- Phase 0: leader election -----------------------------------------

LOOKING = "looking"
FOLLOWING = "following"
LEADING = "leading"
OBSERVING = "observing"


class Notification:
    """Fast Leader Election vote exchange."""

    __slots__ = ("leader", "zxid", "peer_epoch", "round", "sender_state")

    def __init__(self, leader, zxid, peer_epoch, round, sender_state):
        self.leader = leader
        self.zxid = zxid
        self.peer_epoch = peer_epoch
        self.round = round
        self.sender_state = sender_state

    def vote(self):
        """The (peer_epoch, zxid, leader) comparison key of this vote."""
        return (self.peer_epoch, self.zxid, self.leader)

    def __repr__(self):
        return "Notification(leader=%s %r e=%d r=%d %s)" % (
            self.leader, self.zxid, self.peer_epoch, self.round,
            self.sender_state,
        )


# --- Phase 1: discovery -------------------------------------------------


class FollowerInfo:
    """Follower -> leader: CEPOCH(f.p) plus the follower's log position."""

    __slots__ = ("accepted_epoch", "last_zxid")

    def __init__(self, accepted_epoch, last_zxid):
        self.accepted_epoch = accepted_epoch
        self.last_zxid = last_zxid


class NewEpoch:
    """Leader -> follower: NEWEPOCH(e')."""

    __slots__ = ("epoch",)

    def __init__(self, epoch):
        self.epoch = epoch


class AckEpoch:
    """Follower -> leader: ACK-E(f.a, hf) — current epoch + log position."""

    __slots__ = ("current_epoch", "last_zxid")

    def __init__(self, current_epoch, last_zxid):
        self.current_epoch = current_epoch
        self.last_zxid = last_zxid


class HistoryRequest:
    """Leader -> follower: ship me your full history (rare path taken when
    a follower's history is more recent than the prospective leader's)."""

    __slots__ = ()


class HistoryResponse:
    """Follower -> leader: full history (snapshot base + log records)."""

    __slots__ = ("current_epoch", "snapshot", "records")

    def __init__(self, current_epoch, records, snapshot=None):
        self.current_epoch = current_epoch
        self.records = records  # list of LogRecord
        self.snapshot = snapshot  # Snapshot or None (if log starts at genesis)

    def wire_size(self):
        size = HEADER_BYTES + sum(record.size for record in self.records)
        if self.snapshot is not None:
            size += self.snapshot.wire_size()
        return size


# --- Phase 2: synchronisation -------------------------------------------

SYNC_DIFF = "diff"
SYNC_TRUNC = "trunc"
SYNC_SNAP = "snap"


class SyncStart:
    """Leader -> follower: how the follower will be brought up to date."""

    __slots__ = ("mode", "trunc_zxid", "snapshot")

    def __init__(self, mode, trunc_zxid=None, snapshot=None):
        self.mode = mode
        self.trunc_zxid = trunc_zxid
        self.snapshot = snapshot

    def wire_size(self):
        size = HEADER_BYTES + 16
        if self.snapshot is not None:
            size += self.snapshot.wire_size()
        return size


class SyncTxn:
    """Leader -> follower: one committed record of the initial history."""

    __slots__ = ("zxid", "txn", "size")

    def __init__(self, zxid, txn, size):
        self.zxid = zxid
        self.txn = txn
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 8 + self.size


class NewLeader:
    """Leader -> follower: NEWLEADER(e') — end of the sync stream.

    Carries the zxid the follower's log must end at after applying the
    stream; a mismatch means the (supposedly reliable FIFO) channel
    dropped something, and the follower must abandon and re-sync.
    """

    __slots__ = ("epoch", "last_zxid")

    def __init__(self, epoch, last_zxid=None):
        self.epoch = epoch
        self.last_zxid = last_zxid


class AckNewLeader:
    """Follower -> leader: ACK-LD(e') after persisting epoch + history."""

    __slots__ = ("epoch", "last_zxid")

    def __init__(self, epoch, last_zxid):
        self.epoch = epoch
        self.last_zxid = last_zxid


class UpToDate:
    """Leader -> follower: COMMIT-LD — start serving; history is live."""

    __slots__ = ("epoch",)

    def __init__(self, epoch):
        self.epoch = epoch


# --- Phase 3: broadcast ---------------------------------------------------


class Propose:
    """Leader -> follower: two-phase-commit phase one for one txn."""

    __slots__ = ("zxid", "txn", "size")

    def __init__(self, zxid, txn, size):
        self.zxid = zxid
        self.txn = txn
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 8 + self.size

    def __repr__(self):
        return "Propose(%r, %dB)" % (self.zxid, self.size)


class Ack:
    """Follower -> leader: everything up to (and incl.) zxid is durable."""

    __slots__ = ("zxid",)

    def __init__(self, zxid):
        self.zxid = zxid

    def wire_size(self):
        return 16


class Commit:
    """Leader -> follower: deliver everything up to (and incl.) zxid."""

    __slots__ = ("zxid",)

    def __init__(self, zxid):
        self.zxid = zxid

    def wire_size(self):
        return 16


class Inform:
    """Leader -> observer: committed txn (proposal + commit in one)."""

    __slots__ = ("zxid", "txn", "size")

    def __init__(self, zxid, txn, size):
        self.zxid = zxid
        self.txn = txn
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 8 + self.size


class Frame:
    """Leader -> learner: the stream messages (PROPOSE/COMMIT, or
    INFORM) of one leader event, handled in order as if sent back to
    back; tagged with its newest member's zxid.  Its wire size is summed
    once, when built, however many learners it is sent to."""

    __slots__ = ("members", "zxid", "_size")

    def __init__(self, members):
        self.members = members
        zxid, size = members[0].zxid, 0
        for member in members:
            if member.zxid > zxid:
                zxid = member.zxid
            size += member.wire_size()
        self.zxid = zxid
        self._size = size

    def wire_size(self):
        return self._size


class Relay:
    """One hop of a relayed broadcast message (non-direct topologies).

    Carries the originating leader and epoch so a receiver can tell
    stale relays (from a deposed leader's plan) from live traffic, the
    wrapped payload (PROPOSE, COMMIT or FRAME), and the source route
    the receiver forwards onward — a tuple of ``(node, children)``
    pairs in the same nested shape the strategy's plan uses.  Because
    the route travels with the message, in-flight hops keep working
    even if the leader has since recomputed its plan.
    """

    __slots__ = ("origin", "epoch", "payload", "route")

    #: Routing bytes charged per downstream node named in the route.
    ROUTE_ENTRY_BYTES = 8

    def __init__(self, origin, epoch, payload, route=()):
        self.origin = origin
        self.epoch = epoch
        self.payload = payload
        self.route = route

    @property
    def zxid(self):
        """The wrapped payload's zxid (keeps fabric tracing/causality
        zxid-tagged across relay hops)."""
        return getattr(self.payload, "zxid", None)

    def wire_size(self):
        # The wrapped message keeps its own framing: it is never charged
        # less than a header (what a relayed COMMIT has always cost).
        inner = getattr(self.payload, "wire_size", None)
        size = max(inner(), HEADER_BYTES) if inner else HEADER_BYTES
        return size + 16 + self.ROUTE_ENTRY_BYTES * len(
            plan_members(self.route))

    def __repr__(self):
        return "Relay(%s e=%s %r via %d)" % (
            self.origin, self.epoch, self.payload, len(self.route)
        )


# --- Heartbeats -----------------------------------------------------------


class Ping:
    """Leader -> follower heartbeat.

    Carries the commit frontier and, when digest checkpointing is on,
    the leader's latest (position, digest) checkpoint so followers can
    detect silent state divergence.
    """

    __slots__ = ("last_committed", "digest_position", "digest")

    def __init__(self, last_committed, digest_position=None, digest=None):
        self.last_committed = last_committed
        self.digest_position = digest_position
        self.digest = digest


class Pong:
    """Follower -> leader heartbeat reply."""

    __slots__ = ("last_logged",)

    def __init__(self, last_logged):
        self.last_logged = last_logged


# --- Read-path flush (ZooKeeper's sync()) -----------------------------------


class SyncRequest:
    """Follower -> leader: where is your commit frontier right now?

    ZooKeeper's ``sync()``: the leader answers (after everything
    currently outstanding commits) with the frontier zxid; once the
    follower has applied up to it, its local reads are at least as fresh
    as the moment the sync was issued.
    """

    __slots__ = ("cookie",)

    def __init__(self, cookie):
        self.cookie = cookie


class SyncReply:
    """Leader -> follower: frontier reached for this sync cookie."""

    __slots__ = ("cookie", "zxid")

    def __init__(self, cookie, zxid):
        self.cookie = cookie
        self.zxid = zxid


# --- Client traffic ---------------------------------------------------------


class ClientRequest:
    """Client -> any peer: one operation.

    ``watch=True`` on a read op registers a one-shot watch at the
    answering peer (data watch for get/exists/stat, child watch for
    children); the peer later pushes a :class:`WatchEvent`.
    """

    __slots__ = ("request_id", "client", "op", "size", "watch")

    def __init__(self, request_id, client, op, size=64, watch=False):
        self.request_id = request_id
        self.client = client
        self.op = op
        self.size = size
        self.watch = watch

    def wire_size(self):
        return HEADER_BYTES + 17 + self.size


class WatchEvent:
    """Peer -> client: a watched znode changed (one-shot)."""

    __slots__ = ("path", "event")

    def __init__(self, path, event):
        self.path = path
        self.event = event


class ForwardedRequest:
    """Follower -> leader: a write forwarded on behalf of a client."""

    __slots__ = ("request_id", "client", "origin", "op", "size")

    def __init__(self, request_id, client, origin, op, size=64):
        self.request_id = request_id
        self.client = client
        self.origin = origin  # peer id that should answer the client
        self.op = op
        self.size = size

    def wire_size(self):
        return HEADER_BYTES + 24 + self.size


class ClientReply:
    """Peer -> client: operation outcome (or a redirect hint)."""

    __slots__ = ("request_id", "ok", "result", "leader_hint", "zxid")

    def __init__(self, request_id, ok, result=None, leader_hint=None,
                 zxid=None):
        self.request_id = request_id
        self.ok = ok
        self.result = result
        self.leader_hint = leader_hint
        self.zxid = zxid
