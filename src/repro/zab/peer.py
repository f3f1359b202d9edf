"""The QuorumPeer: one replicated-service process.

A :class:`ZabPeer` glues together stable storage, the leader-election
oracle, and the per-role protocol contexts.  It owns the volatile
delivered state (the application state machine, the commit frontier, the
delivery position counter) and the crash/recovery lifecycle: crashing
loses everything volatile; stable storage (epochs, log, snapshots)
survives and the peer rejoins via election on recovery.
"""

from repro.app.watches import WatchManager
from repro.common.errors import NotLeaderError
from repro.obs.trace import NULL_TRACER
from repro.sim.process import Process
from repro.storage import EpochStore, Snapshot, SnapshotStore, TxnLog
from repro.zab import messages
from repro.zab.election import NOTIFICATION_INTERVAL, FastLeaderElection
from repro.zab.follower import FollowerContext
from repro.zab.leader import LeaderContext
from repro.zab.observer import ObserverContext
from repro.zab.pipeline import PendingRequest
from repro.zab.zxid import ZXID_ZERO


#: Messages the peer handles itself, whatever its role (exact class ->
#: method name); everything else goes to the current role context.
_HANDLERS = {
    messages.Notification: "_on_notification",
    messages.ClientRequest: "_on_client_request",
}


class PeerState:
    """Peer role constants (mirrors :mod:`repro.zab.messages`)."""

    LOOKING = messages.LOOKING
    FOLLOWING = messages.FOLLOWING
    LEADING = messages.LEADING
    OBSERVING = messages.OBSERVING


class PeerStorage:
    """The stable-storage bundle of one peer; survives crashes."""

    def __init__(self, disk=None, group_commit=True):
        self.epochs = EpochStore()
        self.log = TxnLog(disk, group_commit=group_commit)
        self.snapshots = SnapshotStore()

    def crash(self):
        """Lose in-flight (not yet fsynced) log appends."""
        self.log.crash()

    def install_snapshot(self, snapshot):
        """Adopt a snapshot shipped by the leader (SNAP sync)."""
        self.snapshots.save(
            snapshot.last_zxid, snapshot.state, snapshot.size
        )
        self.log.reset_to_snapshot(snapshot.last_zxid)


class ZabPeer(Process):
    """One member of the ensemble.

    Parameters
    ----------
    sim, network:
        The shared simulation kernel and fabric.
    peer_id:
        This peer's id; must appear in ``config.voters`` or
        ``config.observers``.
    config:
        The ensemble's :class:`~repro.zab.config.ZabConfig`.
    app_factory:
        Zero-argument callable building a fresh
        :class:`~repro.app.statemachine.StateMachine`.
    storage:
        Optional pre-existing :class:`PeerStorage` (reused across
        simulated restarts by the harness).
    trace:
        Optional :class:`~repro.checker.trace.Trace` recording broadcast
        and delivery events for property checking.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving structured
        observability events (state transitions, commits, sync choices);
        defaults to the no-op tracer.
    leader_factory:
        Callable building the leader-side context when this peer wins an
        election; defaults to :class:`~repro.zab.leader.LeaderContext`.
        Fault-injection tests swap in deliberately broken variants (see
        :mod:`repro.harness.buggy`).
    """

    def __init__(self, sim, network, peer_id, config, app_factory,
                 storage=None, trace=None, tracer=None,
                 leader_factory=None):
        Process.__init__(self, sim, "peer-%d" % peer_id)
        self.network = network
        self.peer_id = peer_id
        self.config = config
        self.app_factory = app_factory
        self.storage = storage or PeerStorage()
        self.trace = trace
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # The txn log emits its own log.append/log.durable events so the
        # span profiler can split fsync time out of the commit path.
        self.storage.log.bind_tracer(self.tracer, peer_id)
        self.leader_factory = leader_factory or LeaderContext
        self.is_observer = peer_id in config.observers
        self.rng = sim.random.stream("peer-%d" % peer_id)
        self.clock_skew = 1.0        # multiplier on election timers
        self.election = FastLeaderElection(self)

        self.state = None            # not started yet
        self.leader_id = None
        self.ctx = None
        self.sm = None               # delivered application state
        self.position = 0            # global delivery index
        self.last_committed = None   # zxid frontier of self.sm
        self.incarnation = 0
        self.delivered_count = 0
        self.elections_decided = 0
        self.times_led = 0
        self.role_changes = []       # (time, state) transitions, for tests
        self._last_snapshot_position = 0
        self._local_callbacks = {}
        self._local_seq = 0
        self._probe_timer = None
        self._digests = {}           # checkpoint position -> digest
        self.divergences = []        # (time, position, ours, leaders)
        # Server-side client watches; registrations survive state
        # rebuilds (the manager re-attaches to each fresh SM).
        self.watch_manager = WatchManager()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Boot the peer (register on the network, begin election)."""
        self.incarnation += 1
        self.network.register(self.peer_id, self._on_message)
        self.sm = None
        self.position = 0
        self.last_committed = None
        self._local_callbacks = {}
        if self.is_observer:
            self._enter_observing()
        else:
            self.go_looking("boot")

    def on_crash(self):
        self.storage.crash()
        self.network.set_alive(self.peer_id, False)
        self.election.stop()
        self._close_ctx()
        self._set_state(None)
        self.sm = None
        self.leader_id = None
        self._local_callbacks = {}

    def on_recover(self):
        # This peer never acknowledged a record the crash tore mid-write:
        # drop it, and the sync restores it if the leader's history has it.
        self.storage.log.drop_torn_tail()
        self.start()

    def election_timer(self, delay, fn):
        """``set_timer`` for election machinery, scaled by clock skew.

        A skewed node's election timeouts stretch (skew > 1) or shrink
        (skew < 1) relative to its peers — the classic misconfigured-
        clock scenario.  The default skew of 1.0 multiplies exactly in
        IEEE floats, so unskewed runs stay bit-identical to before the
        knob existed.
        """
        return self.set_timer(delay * self.clock_skew, fn)

    # ------------------------------------------------------------------
    # Role transitions
    # ------------------------------------------------------------------

    def _set_state(self, state):
        self.state = state
        self.role_changes.append((self.sim.now, state))
        self.tracer.emit("peer.state", node=self.peer_id, state=state)

    def _close_ctx(self):
        if self.ctx is not None:
            self.ctx.close()
            self.ctx = None
        if self._probe_timer is not None:
            self.cancel_timer(self._probe_timer)
            self._probe_timer = None

    def go_looking(self, reason):
        """Abandon the current role and re-enter leader election.

        Role changes get TCP-reset semantics: in-flight appends that
        were never acknowledged are dropped, and re-registering on the
        network bumps our incarnation so messages already in flight
        from the previous role (old proposals, old sync streams) are
        discarded instead of leaking into the new handshake.
        """
        if self.crashed:
            return
        self._close_ctx()
        self.storage.log.abort_pending()
        self.network.register(self.peer_id, self._on_message)
        self.leader_id = None
        self.sm = None
        self.last_looking_reason = reason
        self.tracer.emit("peer.looking", node=self.peer_id, reason=reason)
        if self.is_observer:
            self._enter_observing()
            return
        self._set_state(messages.LOOKING)
        self.election.start()

    def on_election_decided(self, leader):
        """Callback from FLE once a leader has been chosen."""
        self.leader_id = leader
        self.elections_decided += 1
        if leader == self.peer_id:
            self.times_led += 1
            self._set_state(messages.LEADING)
            self.ctx = self.leader_factory(self)
        else:
            self._set_state(messages.FOLLOWING)
            self.ctx = FollowerContext(self, leader)
        self.ctx.start()

    def _enter_observing(self):
        self._set_state(messages.OBSERVING)
        self._arm_probe()

    def _arm_probe(self):
        """Observers probe voters until one answers with a leader."""
        epoch, zxid = self.vote_basis()
        note = messages.Notification(
            leader=self.peer_id,
            zxid=zxid,
            peer_epoch=epoch,
            round=0,
            sender_state=messages.OBSERVING,
        )
        for voter in self.config.voters:
            self.send(voter, note)
        self._probe_timer = self.set_timer(
            NOTIFICATION_INTERVAL, self._arm_probe
        )

    def on_follower_active(self):
        """Hook fired when this peer finishes syncing (tests observe it)."""

    # ------------------------------------------------------------------
    # Election support
    # ------------------------------------------------------------------

    def vote_basis(self):
        """(currentEpoch, lastZxid) — the FLE vote comparison basis."""
        return (
            self.storage.epochs.current_epoch,
            self.storage.log.last_durable() or ZXID_ZERO,
        )

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send(self, dst, msg):
        self.network.send(self.peer_id, dst, msg)

    def _on_message(self, src, msg):
        if self.crashed or self.state is None:
            return
        handler = _HANDLERS.get(msg.__class__)
        if handler is not None:
            getattr(self, handler)(src, msg)
        elif self.ctx is not None:
            self.ctx.on_message(src, msg)

    def _on_notification(self, src, note):
        if self.state == messages.OBSERVING:
            if (
                self.ctx is None
                and note.sender_state == messages.LEADING
                and note.leader == src
            ):
                if self._probe_timer is not None:
                    self.cancel_timer(self._probe_timer)
                    self._probe_timer = None
                self.leader_id = src
                self.ctx = ObserverContext(self, src)
                self.ctx.start()
            return
        self.election.on_notification(src, note)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _on_client_request(self, src, msg):
        if self.sm is not None and self.sm.is_read(msg.op):
            result = self.sm.read(msg.op)
            if msg.watch:
                self._register_client_watch(src, msg.op)
            self.send(
                src,
                messages.ClientReply(
                    msg.request_id, True, result=result,
                    zxid=self.last_committed,
                ),
            )
            return
        request = PendingRequest(
            msg.request_id, msg.client, self.peer_id, msg.op, msg.size
        )
        if self.state == messages.LEADING:
            self.ctx.submit(request)
        elif (
            self.state in (messages.FOLLOWING, messages.OBSERVING)
            and self.ctx is not None
            and self.ctx.active
        ):
            self.ctx.forward_request(request)
        else:
            self.send(
                src,
                messages.ClientReply(
                    msg.request_id, False, leader_hint=self.leader_id
                ),
            )

    def _register_client_watch(self, client, op):
        """One-shot watch at this peer, pushed to *client* when it fires.

        Only meaningful for path-based reads on a tree state machine
        (the op's second element is the path); other reads ignore the
        flag, like ZooKeeper ignores watches on unsupported calls.
        """
        if len(op) < 2 or not isinstance(op[1], str):
            return
        path = op[1]
        if not path.startswith("/"):
            return  # not a tree path (e.g. a KV key): no watch support

        def push(event, fired_path):
            if not self.crashed:
                self.send(
                    client, messages.WatchEvent(fired_path, event)
                )

        if op[0] == "children":
            self.watch_manager.watch_children(path, push)
        else:
            self.watch_manager.watch_data(path, push)

    def propose_op(self, op, callback=None, size=None):
        """Inject a write directly at this peer (benchmark fast path).

        Only valid on an established leader; *callback(result, zxid)* runs
        when the transaction commits locally.
        """
        if self.state != messages.LEADING or not self.ctx.established:
            raise NotLeaderError("%s is not an established leader" % self.name)
        self._local_seq += 1
        request_id = "local-%d-%d" % (self.peer_id, self._local_seq)
        if callback is not None:
            self._local_callbacks[request_id] = callback
        if size is None:
            size = self.sm.op_size(op) if self.sm else 64
        self.ctx.submit(
            PendingRequest(request_id, None, self.peer_id, op, size)
        )
        return request_id

    def sync_read(self, query, callback):
        """Serve *query* at least as fresh as the leader's current commit
        frontier (ZooKeeper's ``sync()`` + read idiom).

        On the leader this waits for the outstanding pipeline to drain;
        on a follower or observer it round-trips a sync barrier to the
        leader first.  *callback(result)* may fire with ``("error", ...)``
        if the peer cannot complete the sync (not serving, leader lost).
        """
        if self.state == messages.LEADING and self.ctx.established:
            self.ctx.sync_barrier(
                lambda _frontier: callback(self.sm.read(query))
            )
        elif self.is_active_follower:
            self.ctx.sync_read(query, callback)
        else:
            callback(("error", "not-serving"))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def commit_local(self, zxid, txn):
        """Apply one committed transaction and answer its originator."""
        result = self.sm.apply(txn.body)
        position = self.position = self.position + 1
        self.delivered_count += 1
        self.last_committed = zxid
        tracer = self.tracer
        if tracer.active:
            tracer.emit(
                "peer.commit", node=self.peer_id,
                zxid=zxid.as_tuple(), txn=txn.txn_id,
            )
        if self.trace is not None:
            self.trace.record_delivery(
                self.peer_id, self.incarnation, self.position, zxid,
                txn.txn_id,
            )
        config = self.config
        if position - self._last_snapshot_position >= config.snapshot_every:
            self._snapshot()
        if config.digest_every and not position % config.digest_every:
            self._checkpoint_digest()
        if txn.origin == self.peer_id:
            self._answer(txn, result, zxid)
        return result

    def _checkpoint_digest(self):
        self._digests[self.position] = self.sm.digest()
        # Keep the table bounded.
        while len(self._digests) > 16:
            del self._digests[min(self._digests)]

    def latest_digest(self):
        """(position, digest) of the newest checkpoint, or (None, None)."""
        if not self._digests:
            return None, None
        position = max(self._digests)
        return position, self._digests[position]

    def check_digest(self, position, digest):
        """Compare a leader checkpoint against our own; record mismatch."""
        ours = self._digests.get(position)
        if ours is not None and ours != digest:
            self.divergences.append(
                (self.sim.now, position, ours, digest)
            )
            return False
        return True

    def _answer(self, txn, result, zxid):
        if txn.client is None:
            callback = self._local_callbacks.pop(txn.request_id, None)
            if callback is not None:
                callback(result, zxid)
        else:
            self.send(
                txn.client,
                messages.ClientReply(
                    txn.request_id, True, result=result, zxid=zxid
                ),
            )

    def take_snapshot(self):
        """Operator-initiated fuzzy snapshot (the ``snapshot`` action).

        Serialises the application state at the current delivery
        frontier and saves it.  Like the periodic path it never purges
        the log — compaction is a separate, explicit
        ``compact_log`` action driven by the retention policy
        (:mod:`repro.storage.retention`).  Returns the saved
        :class:`~repro.storage.snapshot.Snapshot`, or None when there
        is nothing to snapshot (crashed, still syncing, or nothing
        delivered yet).
        """
        if self.crashed or self.sm is None or self.last_committed is None:
            return None
        return self._snapshot()

    def _snapshot(self):
        blob, nbytes = self.sm.serialize()
        snapshot = self.storage.snapshots.save(
            self.last_committed, (blob, self.position), nbytes
        )
        self._last_snapshot_position = self.position
        # Unguarded: snapshots are rare control-plane events that must
        # land in the flight recorder even with tracing off.
        self.tracer.emit(
            "snapshot.save", node=self.peer_id,
            zxid=self.last_committed.as_tuple(),
            position=self.position, size=nbytes,
        )
        return snapshot

    # ------------------------------------------------------------------
    # State (re)construction
    # ------------------------------------------------------------------

    def _replay(self, upto, digests=None):
        """Build (sm, position, frontier) from snapshot + log up to *upto*.

        When *digests* is a dict, checkpoint digests are recomputed at
        the configured interval during the replay (so divergence
        checking keeps working after a resync).
        """
        sm = self.app_factory()
        position = 0
        base = None
        store = self.storage.snapshots
        snapshot = (
            store.latest() if upto is None else store.latest_at_or_before(upto)
        )
        if snapshot is not None:
            blob, position = snapshot.state
            sm.restore(blob)
            base = snapshot.last_zxid
        frontier = base
        applied = []
        every = self.config.digest_every
        for record in self.storage.log.entries_after(base):
            if upto is not None and record.zxid > upto:
                break
            sm.apply(record.txn.body)
            position += 1
            frontier = record.zxid
            applied.append((position, record))
            if digests is not None and every and position % every == 0:
                digests[position] = sm.digest()
        return sm, position, frontier, applied

    def rebuild_state(self, upto=None):
        """Reset the delivered state to the history prefix <= *upto*.

        Each rebuild starts a new delivery *incarnation* in the trace: the
        state machine restarts from a snapshot/replay base, so its
        position sequence begins anew (the checker aligns incarnations by
        absolute position).
        """
        self.incarnation += 1
        self._digests = {}
        sm, position, frontier, applied = self._replay(
            upto, digests=self._digests
        )
        self.sm = sm
        self.position = position
        self.last_committed = frontier or ZXID_ZERO
        self._last_snapshot_position = position
        while len(self._digests) > 16:
            del self._digests[min(self._digests)]
        # Re-attach client watches AFTER the replay so reconstructing
        # old history does not fire spurious events (ZooKeeper watches
        # fire only for changes observed live).
        if hasattr(sm, "listener"):
            self.watch_manager.attach(sm)
        self.delivered_count += len(applied)
        if self.trace is not None:
            for pos, record in applied:
                self.trace.record_delivery(
                    self.peer_id, self.incarnation, pos, record.zxid,
                    record.txn.txn_id,
                )

    def build_snapshot(self, upto):
        """Serialise the history prefix <= *upto* (SNAP sync provider)."""
        sm, position, frontier, _applied = self._replay(upto)
        blob, nbytes = sm.serialize()
        return Snapshot(frontier or ZXID_ZERO, (blob, position), nbytes)

    def clone_state_machine(self):
        """Deep-copy the delivered state (leader's speculative copy)."""
        clone = self.app_factory()
        blob, _nbytes = self.sm.serialize()
        clone.restore(blob)
        return clone

    def note_established_leader(self, epoch):
        """The NEWLEADER quorum formed: the initial history is committed."""
        self.rebuild_state(upto=None)

    def adopt_history(self, snapshot, records):
        """Replace local history with a fetched one (discovery rare path)."""
        purged_through = None
        if snapshot is not None:
            self.storage.snapshots.save(
                snapshot.last_zxid, snapshot.state, snapshot.size
            )
            purged_through = snapshot.last_zxid
        self.storage.log.replace_with(records, purged_through=purged_through)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def is_established_leader(self):
        return (
            self.state == messages.LEADING
            and self.ctx is not None
            and self.ctx.established
        )

    @property
    def is_active_follower(self):
        return (
            self.state in (messages.FOLLOWING, messages.OBSERVING)
            and self.ctx is not None
            and self.ctx.active
        )

    @property
    def is_active_voting_follower(self):
        """An active learner whose ACKs count (never an observer)."""
        return (
            self.state == messages.FOLLOWING
            and self.ctx is not None
            and self.ctx.active
        )

    def current_epoch(self):
        return self.storage.epochs.current_epoch

    def metrics(self):
        """Operational counters for dashboards/tests."""
        data = {
            "state": self.state,
            "incarnation": self.incarnation,
            "delivered": self.delivered_count,
            "position": self.position,
            "elections_decided": self.elections_decided,
            "times_led": self.times_led,
            "log_entries": len(self.storage.log),
            "log_flushes": self.storage.log.flushes,
            "snapshots": self.storage.snapshots.saves,
            "epoch_persists": self.storage.epochs.persist_count,
        }
        if self.state == messages.LEADING and self.ctx is not None:
            data["commits"] = self.ctx.commits
            data["proposals"] = self.ctx.counter
            data["acks_received"] = self.ctx.acks_received
            data["outstanding"] = len(self.ctx.proposals)
            data["sync_modes"] = dict(self.ctx.sync_modes)
        return data

    def __repr__(self):
        return "<ZabPeer %d %s>" % (self.peer_id, self.state)
