"""Observer peers (non-voting replicas).

ZooKeeper observers scale out read capacity without growing the voting
quorum.  An observer locates the current leader by probing voters with
OBSERVING notifications, then runs the follower's learner handshake
(discovery and synchronisation), heartbeats, fresh reads and write
forwarding unchanged.  Only the broadcast phase differs: the leader sends
it INFORM, which carries a transaction already committed, so an observer
never logs a proposal and never ACKs.
"""

from repro.zab import follower, messages
from repro.zab.follower import FollowerContext, _contiguous

#: The follower's dispatch without the voter-only messages (proposals,
#: commits, the new leader's history fetch), plus INFORM.
_HANDLERS = {
    cls: name for cls, name in follower._HANDLERS.items()
    if cls not in (messages.Propose, messages.Commit, messages.HistoryRequest)
}
_HANDLERS[messages.Inform] = "_on_inform"


class ObserverContext(FollowerContext):
    """Connects an observer peer to the leader and applies INFORMs."""

    _handlers = _HANDLERS

    def __init__(self, peer, leader_id):
        FollowerContext.__init__(self, peer, leader_id)
        # INFORM is leader-direct under every topology: no relay to lose.
        self._relayed = False

    def start(self):
        # No FOLLOWERINFO retransmit: the leader's own LEADING
        # notification opened this handshake, so the first one lands.
        self._send_follower_info()
        self._handshake_timer = self.peer.set_timer(
            self.config.handshake_timeout(), self._handshake_expired
        )

    def on_message(self, src, msg):
        # Observers are on no relay route: everything comes from the
        # leader itself.
        if src != self.leader_id:
            return
        self._last_leader_contact = self.peer.sim.now
        handler = self._handlers.get(msg.__class__)
        if handler is not None:
            getattr(self, handler)(msg)

    def _on_inform(self, msg):
        # The leader streams INFORM from NEWLEADER on, like COMMIT to a
        # follower: commits made while this observer finishes its sync
        # are logged now and delivered at UPTODATE.
        if not self._saw_newleader:
            return
        log = self.peer.storage.log
        last = log.last_appended()
        if last is not None and msg.zxid <= last:
            return  # duplicate
        if not _contiguous(last, msg.zxid):
            # A committed transaction went missing in flight; re-sync
            # rather than deliver past the hole.
            self.peer.go_looking(
                "inform gap: got %r after %r" % (msg.zxid, last)
            )
            return
        log.install_record(msg.zxid, msg.txn, msg.size)
        if msg.zxid > self.commit_frontier:
            self.commit_frontier = msg.zxid
        if self.active:
            # Committed already: deliver at once, no log re-read.
            self.peer.commit_local(msg.zxid, msg.txn)
            if self._sync_barriers:
                self._serve_ready_sync_reads()
