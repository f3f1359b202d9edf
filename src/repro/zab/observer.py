"""Observer peers (non-voting replicas).

ZooKeeper observers scale out read capacity without growing the voting
quorum: they receive the committed stream (INFORM messages) but never
acknowledge proposals or vote in elections.  An observer locates the
current leader by probing voters with OBSERVING notifications, then runs
the same learner handshake as a follower.
"""

from repro.zab import messages
from repro.zab.follower import _contiguous
from repro.zab.zxid import ZXID_ZERO

#: Exact-class dispatch of leader traffic: message class -> name of the
#: handling method (no message class is subclassed).
_HANDLERS = {
    messages.NewEpoch: "_on_new_epoch",
    messages.SyncStart: "_on_sync_start",
    messages.SyncTxn: "_on_sync_txn",
    messages.NewLeader: "_on_new_leader",
    messages.UpToDate: "_on_up_to_date",
    messages.Inform: "_on_inform",
    messages.Ping: "_on_ping",
}


class ObserverContext:
    """Connects an observer peer to the leader and applies INFORMs."""

    def __init__(self, peer, leader_id):
        self.peer = peer
        self.config = peer.config
        self.leader_id = leader_id
        self.active = False
        self.epoch = None
        self.horizon = None
        self._sync_records = []
        self._pending_snapshot = None
        self._saw_newleader = False
        self._handshake_timer = None
        self._watchdog_timer = None
        self._last_leader_contact = peer.sim.now

    def start(self):
        storage = self.peer.storage
        self.peer.send(
            self.leader_id,
            messages.FollowerInfo(
                storage.epochs.accepted_epoch,
                storage.log.last_durable() or ZXID_ZERO,
            ),
        )
        self._handshake_timer = self.peer.set_timer(
            self.config.handshake_timeout(), self._handshake_expired
        )

    def close(self):
        for timer in (self._handshake_timer, self._watchdog_timer):
            if timer is not None:
                self.peer.cancel_timer(timer)
        self._handshake_timer = None
        self._watchdog_timer = None

    def _handshake_expired(self):
        self._handshake_timer = None
        if not self.active:
            self.peer.go_looking("observer handshake timed out")

    # ------------------------------------------------------------------

    def on_message(self, src, msg):
        if src != self.leader_id:
            return
        self._last_leader_contact = self.peer.sim.now
        handler = _HANDLERS.get(msg.__class__)
        if handler is not None:
            getattr(self, handler)(msg)

    def _on_sync_start(self, msg):
        self._sync_records = []
        self._pending_snapshot = None
        if msg.mode == messages.SYNC_TRUNC:
            self.peer.storage.log.truncate(msg.trunc_zxid)
        elif msg.mode == messages.SYNC_SNAP:
            self._pending_snapshot = msg.snapshot

    def _on_sync_txn(self, msg):
        self._sync_records.append((msg.zxid, msg.txn, msg.size))

    def _on_ping(self, msg):
        self.peer.send(
            self.leader_id,
            messages.Pong(
                self.peer.storage.log.last_durable() or ZXID_ZERO
            ),
        )

    def _on_new_epoch(self, msg):
        epochs = self.peer.storage.epochs
        if msg.epoch < epochs.accepted_epoch:
            self.peer.go_looking("observer saw stale NEWEPOCH")
            return
        if msg.epoch > epochs.accepted_epoch:
            epochs.set_accepted_epoch(msg.epoch)
        self.peer.send(
            self.leader_id,
            messages.AckEpoch(
                epochs.current_epoch,
                self.peer.storage.log.last_durable() or ZXID_ZERO,
            ),
        )

    def _on_new_leader(self, msg):
        storage = self.peer.storage
        if self._pending_snapshot is not None:
            storage.install_snapshot(self._pending_snapshot)
        for zxid, txn, size in self._sync_records:
            last = storage.log.last_durable()
            if last is not None and zxid <= last:
                continue  # duplicate from a repeated sync stream
            storage.log.install_record(zxid, txn, size)
        self._sync_records = []
        self._pending_snapshot = None
        self.horizon = storage.log.last_durable() or ZXID_ZERO
        if msg.last_zxid is not None and self.horizon != msg.last_zxid:
            self.peer.go_looking("observer sync stream incomplete")
            return
        if msg.epoch > storage.epochs.current_epoch:
            storage.epochs.set_current_epoch(msg.epoch)
        self.epoch = msg.epoch
        self._saw_newleader = True
        self.peer.send(
            self.leader_id, messages.AckNewLeader(msg.epoch, self.horizon)
        )

    def _on_up_to_date(self, msg):
        if not self._saw_newleader or msg.epoch != self.epoch:
            return
        if self._handshake_timer is not None:
            self.peer.cancel_timer(self._handshake_timer)
            self._handshake_timer = None
        self.active = True
        self.peer.rebuild_state(upto=self.horizon)
        self._arm_watchdog()
        self.peer.on_follower_active()

    def _on_inform(self, msg):
        if not self.active:
            return
        last = self.peer.storage.log.last_appended()
        if last is not None and msg.zxid <= last:
            return  # duplicate
        if not _contiguous(last, msg.zxid):
            # A committed transaction went missing in flight; re-sync
            # rather than deliver past the hole.
            self.peer.go_looking(
                "inform gap: got %r after %r" % (msg.zxid, last)
            )
            return
        # INFORM carries a committed transaction: log and deliver at once.
        self.peer.storage.log.install_record(msg.zxid, msg.txn, msg.size)
        self.peer.commit_local(msg.zxid, msg.txn)

    def _arm_watchdog(self):
        self._watchdog_timer = self.peer.set_timer(
            self.config.tick, self._check_leader_alive
        )

    def _check_leader_alive(self):
        self._watchdog_timer = None
        silence = self.peer.sim.now - self._last_leader_contact
        if silence > self.config.staleness_timeout():
            self.peer.go_looking("observer lost leader")
            return
        self._arm_watchdog()

    def forward_request(self, request):
        """Observers also relay client writes to the leader."""
        self.peer.send(
            self.leader_id,
            messages.ForwardedRequest(
                request.request_id,
                request.client,
                request.origin,
                request.op,
                request.size,
            ),
        )
