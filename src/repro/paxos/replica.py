"""A combined Paxos acceptor / proposer / learner process.

Each replica plays all three classic roles.  A replica that suspects the
leader (heartbeat silence) *scouts* a higher ballot: phase 1 over all
instances at or above its delivered frontier, then re-proposes the
highest-ballot accepted value per instance, fills gaps with no-ops, and
opens for new client operations with up to ``max_outstanding`` concurrent
instances.

The primary-backup layering matches the Zab stack deliberately: the
leader *prepares* client operations into state deltas against a
speculative copy of its state, so that the baseline exercises the exact
failure mode the paper describes — after leader changes, instances can
commit in an order that breaks the deltas' causal chain.  (Delivery order
is still a total order; what Paxos lacks is *primary* order.)
"""

from repro.common.errors import NotLeaderError
from repro.paxos import messages
from repro.sim.process import Process
from repro.zab.zxid import Zxid

ROLE_IDLE = "idle"
ROLE_SCOUTING = "scouting"
ROLE_LEADING = "leading"

_NO_BALLOT = (0, 0)


class PaxosReplica(Process):
    """One member of the Paxos ensemble, configured by a ``ZabConfig``.

    ``state`` is ``None`` while down, else a ``ROLE_*`` name.  Acceptor
    and learner state is stable storage: it survives a crash, and a
    recovered replica catches up from the leader's heartbeats.
    """

    def __init__(self, sim, network, peer_id, config, app_factory,
                 trace=None):
        Process.__init__(self, sim, "paxos-%d" % peer_id)
        self.network = network
        self.peer_id = peer_id
        self.config = config
        self.app_factory = app_factory
        self.trace = trace
        self.rng = sim.random.stream("paxos-%d" % peer_id)
        self.clock_skew = 1.0        # multiplier on the watchdog timer

        # Acceptor state.
        self.promised = _NO_BALLOT
        self.accepted = {}            # instance -> (ballot, txn)

        # Learner state.
        self.decided = {}             # instance -> txn
        self.delivered_upto = 0
        self.sm = app_factory()
        self._callbacks = {}          # txn_id -> callable(result)

        # Proposer state.
        self.state = None
        self.ballot = (0, peer_id)
        self.current_leader_ballot = None
        self._last_leader_contact = 0.0
        self._promises = {}
        self._inflight = {}           # instance -> (txn, acked peers)
        self._next_instance = 1
        self._pending_ops = []
        self._seq = 0
        self.spec_sm = None
        self._hb_timer = None
        self._watchdog = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.network.register(self.peer_id, self._on_message)
        self.state = ROLE_IDLE
        self._last_leader_contact = self.sim.now
        self._arm_watchdog()
        return self

    def on_crash(self):
        self.network.set_alive(self.peer_id, False)
        self.state = None
        self._inflight = {}
        self._pending_ops = []
        self._callbacks = {}

    def on_recover(self):
        self.start()

    @property
    def is_established_leader(self):
        return self.state == ROLE_LEADING

    @property
    def is_active_follower(self):
        """Up and not leading.  A scout's acceptor and learner keep
        serving whichever ballot leads, so it follows too."""
        return self.state in (ROLE_IDLE, ROLE_SCOUTING)

    #: Every Paxos replica votes.
    is_active_voting_follower = is_active_follower

    @property
    def last_committed(self):
        """Zxid of the newest delivered transaction (``None`` before
        the first): the delivered frontier ``ZabPeer`` also exposes."""
        if not self.delivered_upto:
            return None
        txn = self.decided[self.delivered_upto]
        return Zxid(txn.epoch, txn.seq)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def propose_op(self, op, callback=None, size=64):
        """Propose a client operation; only valid while leading.

        Same contract as :meth:`repro.zab.peer.ZabPeer.propose_op`:
        *callback* is called as ``callback(result, zxid)`` when this
        replica delivers the operation.
        """
        if self.state != ROLE_LEADING:
            raise NotLeaderError("%s is not leading" % self.name)
        if len(self._inflight) >= self.config.max_outstanding:
            self._pending_ops.append((op, callback, size))
            return
        self._propose_new(op, callback, size)

    def _propose_new(self, op, callback, size):
        body = self.spec_sm.prepare(op)
        self.spec_sm.apply(body)
        self._seq += 1
        epoch = self.ballot[0]
        txn = messages.PaxosTxn(
            "p%d.%d" % (epoch, self._seq), epoch, self._seq, body, size
        )
        if callback is not None:
            self._callbacks[txn.txn_id] = callback
        if self.trace is not None:
            self.trace.record_broadcast(
                self.peer_id, epoch, Zxid(epoch, self._seq), txn.txn_id
            )
        instance = self._next_instance
        self._next_instance += 1
        self._send_p2a(instance, txn)

    # ------------------------------------------------------------------
    # Scouting (phase 1)
    # ------------------------------------------------------------------

    def start_scout(self):
        """Attempt leadership with a fresh, higher ballot."""
        round_floor = max(self.promised[0], self.ballot[0])
        if self.current_leader_ballot is not None:
            round_floor = max(round_floor, self.current_leader_ballot[0])
        self.ballot = (round_floor + 1, self.peer_id)
        self.state = ROLE_SCOUTING
        self._promises = {}
        self._inflight = {}
        low = self.delivered_upto + 1
        message = messages.P1a(self.ballot, low)
        for peer in self.config.voters:
            if peer == self.peer_id:
                self._accept_p1a(self.peer_id, message)
            else:
                self.network.send(self.peer_id, peer, message)

    def _accept_p1a(self, src, msg):
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
        reply = messages.P1b(
            msg.ballot,
            self.promised,
            {
                instance: entry
                for instance, entry in self.accepted.items()
                if instance >= msg.low_instance
            },
        )
        if src == self.peer_id:
            self._on_p1b(src, reply)
        else:
            self.network.send(self.peer_id, src, reply)

    def _on_p1b(self, src, msg):
        if self.state != ROLE_SCOUTING or msg.ballot != self.ballot:
            return
        if msg.promised > self.ballot:
            # Preempted: someone holds a higher ballot.
            self.state = ROLE_IDLE
            self.current_leader_ballot = max(
                self.current_leader_ballot or _NO_BALLOT, msg.promised
            )
            return
        self._promises[src] = msg.accepted
        if self.config.quorum.contains_quorum(set(self._promises)):
            self._become_leader()

    def _become_leader(self):
        self.state = ROLE_LEADING
        self.current_leader_ballot = self.ballot
        self._seq = 0
        # Merge accepted values: highest ballot wins per instance.
        merged = {}
        for accepted in self._promises.values():
            for instance, (ballot, txn) in accepted.items():
                if instance not in merged or ballot > merged[instance][0]:
                    merged[instance] = (ballot, txn)
        # Speculative state starts from delivered state, charitably
        # replaying the re-proposed suffix in instance order (the paper's
        # point is that even this cannot restore primary order).
        self.spec_sm = self.app_factory()
        blob, _nbytes = self.sm.serialize()
        self.spec_sm.restore(blob)
        top = max(merged) if merged else self.delivered_upto
        for instance in range(self.delivered_upto + 1, top + 1):
            if instance in merged:
                txn = merged[instance][1]
            else:
                txn = self._make_noop()
            if txn.body[0] != "noop":
                self.spec_sm.apply(txn.body)
            self._send_p2a(instance, txn)
        self._next_instance = top + 1
        self._arm_heartbeat()
        pending, self._pending_ops = self._pending_ops, []
        for op, callback, size in pending:
            self.propose_op(op, callback, size)

    def _make_noop(self):
        self._seq += 1
        epoch = self.ballot[0]
        txn = messages.PaxosTxn(
            "p%d.%d" % (epoch, self._seq), epoch, self._seq, ("noop",), 16
        )
        if self.trace is not None:
            self.trace.record_broadcast(
                self.peer_id, epoch, Zxid(epoch, txn.seq), txn.txn_id
            )
        return txn

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------

    def _send_p2a(self, instance, txn):
        self._inflight[instance] = (txn, set())
        message = messages.P2a(self.ballot, instance, txn, txn.size)
        for peer in self.config.voters:
            if peer == self.peer_id:
                self._accept_p2a(self.peer_id, message)
            else:
                self.network.send(self.peer_id, peer, message)

    def _accept_p2a(self, src, msg):
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted[msg.instance] = (msg.ballot, msg.txn)
        reply = messages.P2b(msg.ballot, msg.instance, self.promised)
        if src == self.peer_id:
            self._on_p2b(src, reply)
        else:
            self.network.send(self.peer_id, src, reply)
        if msg.ballot > (self.current_leader_ballot or _NO_BALLOT):
            self.current_leader_ballot = msg.ballot
        self._last_leader_contact = self.sim.now

    def _on_p2b(self, src, msg):
        if self.state != ROLE_LEADING or msg.ballot != self.ballot:
            return
        if msg.promised > self.ballot:
            self.state = ROLE_IDLE
            self._inflight = {}
            self._cancel_heartbeat()
            return
        flight = self._inflight.get(msg.instance)
        if flight is None:
            return
        txn, acks = flight
        acks.add(src)
        if self.config.quorum.contains_quorum(acks):
            del self._inflight[msg.instance]
            self._decide(msg.instance, txn)
            self._drain_pending()

    def _decide(self, instance, txn):
        message = messages.Decide(instance, txn, txn.size)
        for peer in self.config.voters:
            if peer == self.peer_id:
                self._on_decide(message)
            else:
                self.network.send(self.peer_id, peer, message)

    def _drain_pending(self):
        while (
            self._pending_ops
            and self.state == ROLE_LEADING
            and len(self._inflight) < self.config.max_outstanding
        ):
            op, callback, size = self._pending_ops.pop(0)
            self._propose_new(op, callback, size)

    # ------------------------------------------------------------------
    # Learner
    # ------------------------------------------------------------------

    def _on_decide(self, msg):
        if msg.instance not in self.decided:
            self.decided[msg.instance] = msg.txn
        while self.delivered_upto + 1 in self.decided:
            self.delivered_upto += 1
            txn = self.decided[self.delivered_upto]
            result = self.sm.apply(txn.body)
            zxid = Zxid(txn.epoch, txn.seq)
            if self.trace is not None:
                self.trace.record_delivery(
                    self.peer_id,
                    1,
                    self.delivered_upto,
                    zxid,
                    txn.txn_id,
                    epoch=txn.epoch,
                )
            callback = self._callbacks.pop(txn.txn_id, None)
            if callback is not None:
                callback(result, zxid)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------

    def _arm_heartbeat(self):
        self._cancel_heartbeat()
        self._hb_timer = self.set_timer(self.config.tick, self._beat)

    def _beat(self):
        self._hb_timer = None
        if self.state != ROLE_LEADING:
            return
        message = messages.Heartbeat(self.ballot, self.delivered_upto)
        for peer in self.config.voters:
            if peer != self.peer_id:
                self.network.send(self.peer_id, peer, message)
        self._arm_heartbeat()

    def _cancel_heartbeat(self):
        if self._hb_timer is not None:
            self.cancel_timer(self._hb_timer)
            self._hb_timer = None

    def _on_heartbeat(self, src, msg):
        if msg.ballot >= (self.current_leader_ballot or _NO_BALLOT):
            self.current_leader_ballot = msg.ballot
            self._last_leader_contact = self.sim.now
            if self.state == ROLE_LEADING and msg.ballot > self.ballot:
                self.state = ROLE_IDLE
                self._inflight = {}
                self._cancel_heartbeat()
        if msg.decided_upto > self.delivered_upto:
            # Learner catch-up: ask for the decided instances we missed.
            self.network.send(
                self.peer_id, src,
                messages.LearnRequest(self.delivered_upto + 1),
            )

    _LEARN_BATCH = 500

    def _on_learn_request(self, src, msg):
        sent = 0
        instance = msg.from_instance
        while instance in self.decided and sent < self._LEARN_BATCH:
            txn = self.decided[instance]
            self.network.send(
                self.peer_id, src,
                messages.Decide(instance, txn, txn.size),
            )
            instance += 1
            sent += 1

    def _arm_watchdog(self):
        jitter = self.rng.uniform(0, self.config.tick)
        self._watchdog = self.set_timer(
            (self.config.tick + jitter) * self.clock_skew, self._check_leader
        )

    def _check_leader(self):
        self._watchdog = None
        silence = self.sim.now - self._last_leader_contact
        if (
            self.state == ROLE_IDLE
            and silence > self.config.staleness_timeout()
        ):
            self.start_scout()
        self._arm_watchdog()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _on_message(self, src, msg):
        if self.crashed:
            return
        if isinstance(msg, messages.P1a):
            self._accept_p1a(src, msg)
        elif isinstance(msg, messages.P1b):
            self._on_p1b(src, msg)
        elif isinstance(msg, messages.P2a):
            self._accept_p2a(src, msg)
        elif isinstance(msg, messages.P2b):
            self._on_p2b(src, msg)
        elif isinstance(msg, messages.Decide):
            self._on_decide(msg)
        elif isinstance(msg, messages.Heartbeat):
            self._on_heartbeat(src, msg)
        elif isinstance(msg, messages.LearnRequest):
            self._on_learn_request(src, msg)
