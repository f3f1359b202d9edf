"""Follower-side protocol.

A :class:`FollowerContext` handles one attempt to follow a specific
leader: the discovery/synchronisation handshake (FOLLOWERINFO → NEWEPOCH →
ACKEPOCH → sync stream → NEWLEADER → ACK → UPTODATE) and then the
broadcast phase (log + ACK proposals, deliver on COMMIT, answer PINGs,
forward client writes).  One ACK covers a whole flush (ACKs are cumulative).

Safety-critical details implemented here:

- ``acceptedEpoch``/``currentEpoch`` are persisted exactly where the paper
  requires (before ACKEPOCH / before ACK-NEWLEADER);
- transactions delivered to the state machine are only those at or below
  the *sync horizon* (the initial history, committed by NEWLEADER quorum)
  or explicitly covered by a COMMIT — proposals logged between NEWLEADER
  and UPTODATE wait for their commits;
- the follower abandons the leader and re-enters election if the
  handshake exceeds ``init_limit`` ticks or pings stop for ``sync_limit``
  ticks.

Observers run the same learner with a different broadcast phase (see
:class:`~repro.zab.observer.ObserverContext`).
"""

import functools

from repro.zab import messages
from repro.zab.zxid import ZXID_ZERO

PHASE_DISCOVERY = "discovery"
PHASE_SYNC = "synchronization"
PHASE_BROADCAST = "broadcast"

#: Exact-class dispatch of leader traffic: message class -> name of the
#: handling method (no message class is subclassed).
_HANDLERS = {
    messages.NewEpoch: "_on_new_epoch",
    messages.HistoryRequest: "_on_history_request",
    messages.SyncStart: "_on_sync_start",
    messages.SyncTxn: "_on_sync_txn",
    messages.NewLeader: "_on_new_leader",
    messages.UpToDate: "_on_up_to_date",
    messages.Propose: "_on_propose",
    messages.Commit: "_on_commit",
    messages.Ping: "_on_ping",
    messages.SyncReply: "_on_sync_reply",
}


def _contiguous(last, zxid):
    """True if *zxid* directly extends *last* in the broadcast order.

    Counters are consecutive within an epoch and restart at 1 when the
    epoch changes; anything else means the channel dropped a proposal.
    """
    if last is None:
        return zxid.counter == 1
    if zxid.epoch == last.epoch:
        return zxid.counter == last.counter + 1
    return zxid.counter == 1


class FollowerContext:
    """Drives one following attempt of *peer* towards *leader_id*."""

    def __init__(self, peer, leader_id):
        self.peer = peer
        self.config = peer.config
        self.leader_id = leader_id
        self.phase = PHASE_DISCOVERY
        self.active = False          # true after UPTODATE
        self.epoch = None
        self.horizon = None          # last zxid of the synced history
        self.commit_frontier = ZXID_ZERO
        self._sync_records = []
        self._pending_snapshot = None
        self._saw_newleader = False
        self._handshake_timer = None
        self._watchdog_timer = None
        self._info_timer = None
        self._got_new_epoch = False
        self._last_leader_contact = peer.sim.now
        self._sync_seq = 0
        self._sync_reads = {}      # cookie -> (query, callback)
        self._sync_barriers = []   # (zxid, cookie) awaiting local apply
        # Non-direct dissemination: proposals arrive via relay hops, so
        # a lost relay shows up as the leader's commit frontier running
        # ahead of our log.  _relay_lag remembers the stuck log position
        # between pings (two lagging pings with no append progress means
        # the relayed stream really broke, not just in flight).
        self._relayed = not peer.config.dissemination.direct
        self._relay_lag = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self._send_follower_info()
        self._handshake_timer = self.peer.set_timer(
            self.config.handshake_timeout(), self._handshake_expired
        )
        # The elected leader may not have entered LEADING yet when our
        # first FOLLOWERINFO lands (it would be silently ignored), so
        # retransmit until the handshake makes progress.
        self._info_timer = self.peer.set_timer(
            self.config.tick, self._resend_follower_info
        )

    def _send_follower_info(self):
        storage = self.peer.storage
        self.peer.send(
            self.leader_id,
            messages.FollowerInfo(
                storage.epochs.accepted_epoch,
                storage.log.last_durable() or ZXID_ZERO,
            ),
        )

    def _resend_follower_info(self):
        self._info_timer = None
        if self.phase == PHASE_DISCOVERY and not self._got_new_epoch:
            self._send_follower_info()
            self._info_timer = self.peer.set_timer(
                self.config.tick, self._resend_follower_info
            )

    def close(self):
        for timer in (self._handshake_timer, self._watchdog_timer,
                      self._info_timer):
            if timer is not None:
                self.peer.cancel_timer(timer)
        self._handshake_timer = None
        self._watchdog_timer = None
        self._info_timer = None
        # Fail outstanding sync-reads: the leader channel is gone.
        for _query, callback in self._sync_reads.values():
            callback(("error", "connection-lost"))
        self._sync_reads = {}
        self._sync_barriers = []

    def _handshake_expired(self):
        self._handshake_timer = None
        if not self.active:
            self.peer.go_looking("follower handshake timed out")

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, src, msg):
        cls = msg.__class__
        if cls is messages.Relay:
            # Relayed broadcast traffic arrives from a peer follower,
            # not the leader itself — validate by origin/epoch instead
            # of transport source.
            self._on_relay(msg)
            return
        if src != self.leader_id:
            return  # stale traffic from a deposed leader
        self._last_leader_contact = self.peer.sim.now
        handler = _HANDLERS.get(cls)
        if handler is not None:
            getattr(self, handler)(msg)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def _on_new_epoch(self, msg):
        epochs = self.peer.storage.epochs
        if msg.epoch < epochs.accepted_epoch:
            # A leader from the past; do not follow it.
            self.peer.go_looking("NEWEPOCH older than acceptedEpoch")
            return
        self._got_new_epoch = True
        if msg.epoch > epochs.accepted_epoch:
            epochs.set_accepted_epoch(msg.epoch)
        self.peer.send(
            self.leader_id,
            messages.AckEpoch(
                epochs.current_epoch,
                self.peer.storage.log.last_durable() or ZXID_ZERO,
            ),
        )

    def _on_history_request(self, msg):
        storage = self.peer.storage
        snapshot = None
        if storage.log.purged_through() is not None:
            snapshot = storage.snapshots.latest()
        self.peer.send(
            self.leader_id,
            messages.HistoryResponse(
                storage.epochs.current_epoch,
                storage.log.all_entries(),
                snapshot=snapshot,
            ),
        )

    def _on_sync_start(self, msg):
        self.phase = PHASE_SYNC
        self.peer.tracer.emit(
            "follower.sync", node=self.peer.peer_id,
            leader=self.leader_id, mode=msg.mode,
        )
        self._sync_records = []
        self._pending_snapshot = None
        if msg.mode == messages.SYNC_TRUNC:
            self.peer.storage.log.truncate(msg.trunc_zxid)
        elif msg.mode == messages.SYNC_SNAP:
            self._pending_snapshot = msg.snapshot

    def _on_sync_txn(self, msg):
        self._sync_records.append((msg.zxid, msg.txn, msg.size))

    def _on_new_leader(self, msg):
        epochs = self.peer.storage.epochs
        if msg.epoch < epochs.accepted_epoch:
            self.peer.go_looking("NEWLEADER older than acceptedEpoch")
            return
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
            # The sync stream was damaged in flight (Zab assumes
            # reliable FIFO channels; a hole means the channel broke).
            self.peer.go_looking("sync stream incomplete")
            return
        epochs.set_current_epoch(msg.epoch)
        self.peer.tracer.emit(
            "peer.epoch", node=self.peer.peer_id, epoch=msg.epoch,
        )
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
        self.phase = PHASE_BROADCAST
        self.active = True
        self.peer.tracer.emit(
            "follower.active", node=self.peer.peer_id,
            leader=self.leader_id, epoch=self.epoch,
            horizon=self.horizon.as_tuple(),
        )
        # The initial history (everything up to the sync horizon) is
        # committed; proposals logged after it wait for COMMITs.
        self.peer.rebuild_state(upto=self.horizon)
        self._deliver_committed()
        self._arm_watchdog()
        self.peer.on_follower_active()

    # ------------------------------------------------------------------
    # Broadcast phase
    # ------------------------------------------------------------------

    def _on_relay(self, msg):
        """Forward one relayed hop onward, then process its payload.

        Only relays from the leader we are actively following (matching
        origin *and* epoch) count; anything else is a deposed leader's
        in-flight plan and is dropped — the downstream nodes it would
        have fed detect the gap and re-sync, exactly like a lost direct
        channel.  Forwarding happens *before* local processing so a
        poison payload cannot starve the rest of the route.
        """
        if msg.origin != self.leader_id or msg.epoch != self.epoch:
            return
        self._last_leader_contact = self.peer.sim.now
        route = msg.route
        if route:
            tracer = self.peer.tracer
            if tracer.active:
                zxid = msg.zxid
                tracer.emit(
                    "follower.relay", node=self.peer.peer_id,
                    origin=msg.origin,
                    type=type(msg.payload).__name__,
                    zxid=zxid.as_tuple() if zxid is not None else None,
                    fanout=len(route),
                )
            for node, children in route:
                self.peer.send(node, messages.Relay(
                    msg.origin, msg.epoch, msg.payload, children
                ))
        self.on_message(self.leader_id, msg.payload)

    def _on_propose(self, msg):
        if not self._saw_newleader or msg.zxid.epoch != self.epoch:
            return
        log = self.peer.storage.log
        last = log.last_appended()
        if last is not None and msg.zxid <= last:
            # Duplicate from a re-sync: ACK it only if durable; a copy
            # still queued for fsync is covered by its flush's own ACK.
            durable = log.last_durable()
            if durable is not None and msg.zxid <= durable:
                self.peer.send(self.leader_id, messages.Ack(msg.zxid))
            return
        if not _contiguous(last, msg.zxid):
            # A proposal went missing: the supposedly-FIFO-reliable
            # channel dropped something.  Logging past the hole would
            # break total order — abandon and re-sync instead (the
            # moral equivalent of a TCP connection reset).
            self.peer.go_looking(
                "proposal gap: got %r after %r" % (msg.zxid, last)
            )
            return
        log.append(
            msg.zxid, msg.txn, msg.size,
            callback=functools.partial(self._on_durable, msg.zxid),
        )

    def _on_durable(self, zxid):
        # The log runs one callback per flush, for its newest record.
        tracer = self.peer.tracer
        if tracer.active:
            tracer.emit(
                "follower.ack", node=self.peer.peer_id,
                zxid=zxid.as_tuple(), leader=self.leader_id,
            )
        self.peer.send(self.leader_id, messages.Ack(zxid))
        self._deliver_committed()

    def _on_commit(self, msg):
        if msg.zxid > self.commit_frontier:
            self.commit_frontier = msg.zxid
        self._deliver_committed()

    def _deliver_committed(self):
        """Deliver the durable records the commit frontier now covers.

        Runs on every durable callback, COMMIT and PING; most of those
        move nothing, so the log is only read when the frontier is ahead
        of what was already delivered.
        """
        if not self.active:
            return
        peer = self.peer
        frontier = self.commit_frontier
        delivered = peer.last_committed
        if delivered is None or frontier > delivered:
            for record in peer.storage.log.entries_after(delivered):
                if record.zxid > frontier:
                    break
                peer.commit_local(record.zxid, record.txn)
        if self._sync_barriers:
            self._serve_ready_sync_reads()

    # ------------------------------------------------------------------
    # Fresh reads (ZooKeeper's sync())
    # ------------------------------------------------------------------

    def sync_read(self, query, callback):
        """Serve *query* no staler than the leader's commit frontier at
        the moment this call is made."""
        self._sync_seq += 1
        cookie = (self.peer.peer_id, self._sync_seq)
        self._sync_reads[cookie] = (query, callback)
        self.peer.send(self.leader_id, messages.SyncRequest(cookie))

    def _on_sync_reply(self, msg):
        if msg.cookie not in self._sync_reads:
            return
        self._sync_barriers.append((msg.zxid, msg.cookie))
        self._serve_ready_sync_reads()

    def _serve_ready_sync_reads(self):
        if not self._sync_barriers or not self.active:
            return
        frontier = self.peer.last_committed
        remaining = []
        for zxid, cookie in self._sync_barriers:
            if frontier is not None and zxid <= frontier:
                query, callback = self._sync_reads.pop(cookie)
                callback(self.peer.sm.read(query))
            else:
                remaining.append((zxid, cookie))
        self._sync_barriers = remaining

    # ------------------------------------------------------------------
    # Heartbeats / failure detection
    # ------------------------------------------------------------------

    def _on_ping(self, msg):
        if self._relayed and self.active and msg.last_committed:
            # Relayed proposals can be lost without breaking any direct
            # FIFO channel (a relay crashed mid-hop).  The leader's
            # frontier running ahead of our *log* across two pings with
            # no append progress means the relayed stream broke; re-sync.
            last = self.peer.storage.log.last_appended() or ZXID_ZERO
            if msg.last_committed > last:
                if self._relay_lag == last:
                    self.peer.go_looking(
                        "missed relayed proposals: leader committed %r, "
                        "log at %r" % (msg.last_committed, last)
                    )
                    return
                self._relay_lag = last
            else:
                self._relay_lag = None
        if msg.last_committed and msg.last_committed > self.commit_frontier:
            self.commit_frontier = msg.last_committed
        self._deliver_committed()
        if msg.digest is not None:
            self.peer.check_digest(msg.digest_position, msg.digest)
        self.peer.send(
            self.leader_id,
            messages.Pong(
                self.peer.storage.log.last_durable() or ZXID_ZERO
            ),
        )

    def _arm_watchdog(self):
        self._watchdog_timer = self.peer.set_timer(
            self.config.tick, self._check_leader_alive
        )

    def _check_leader_alive(self):
        self._watchdog_timer = None
        silence = self.peer.sim.now - self._last_leader_contact
        if silence > self.config.staleness_timeout():
            self.peer.go_looking("leader silent for %.3fs" % silence)
            return
        self._arm_watchdog()

    # ------------------------------------------------------------------
    # Client traffic
    # ------------------------------------------------------------------

    def forward_request(self, request):
        """Relay a client write to the leader (follower write path)."""
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
