"""Leader-side protocol: discovery, synchronisation, broadcast.

One :class:`LeaderContext` exists per leadership attempt.  Life cycle:

1. **Discovery** — collect FOLLOWERINFO from a quorum, propose the new
   epoch ``e' = max(acceptedEpochs) + 1``, collect ACKEPOCH, and adopt the
   most recent history among the quorum (fetching it from a follower in
   the rare case that follower is fresher than the leader).
2. **Synchronisation** — bring each follower to the adopted initial
   history (DIFF / TRUNC / SNAP), send NEWLEADER(e'), and establish once a
   quorum has acknowledged.
3. **Broadcast** — pipelined two-phase commit: assign zxids ``(e', n)``,
   log + PROPOSE, count quorum ACKs, COMMIT in order; ACK(z) and COMMIT(z)
   are cumulative (every zxid <= z of the epoch).  Late followers are
   synchronised individually and join the broadcast stream.

The leader abdicates (peer returns to LOOKING) if it cannot establish
within ``init_limit`` ticks or later loses contact with a quorum.
"""

import functools

from repro.app.statemachine import Txn
from repro.zab import messages
from repro.zab.pipeline import Batcher, OutstandingWindow, PendingRequest
from repro.zab.sync import make_sync_plan
from repro.zab.zxid import Zxid, ZXID_ZERO, max_zxid

PHASE_DISCOVERY = "discovery"
PHASE_FETCH = "fetch-history"
PHASE_SYNC = "synchronization"
PHASE_BROADCAST = "broadcast"

#: Exact-class dispatch of learner traffic: message class -> name of the
#: handling method (no message class is subclassed).
_HANDLERS = {
    messages.FollowerInfo: "_on_follower_info",
    messages.AckEpoch: "_on_ack_epoch",
    messages.HistoryResponse: "_on_history_response",
    messages.AckNewLeader: "_on_ack_new_leader",
    messages.Ack: "_on_ack",
    messages.SyncRequest: "_on_sync_request",
    messages.ForwardedRequest: "_on_forwarded_request",
}


class _FollowerHandle:
    """Per-learner connection state at the leader."""

    __slots__ = (
        "peer_id",
        "voter",
        "last_contact",
        "last_ack",
        "epoch_sent",
        "ackepoch",
        "in_stream",
        "synced",
    )

    def __init__(self, peer_id, voter, now):
        self.peer_id = peer_id
        self.voter = voter       # counts in quorums, takes PROPOSE/COMMIT;
                                 # else an observer: INFORM only
        self.last_contact = now
        self.last_ack = now      # last proposal acknowledgement
        self.epoch_sent = False
        self.ackepoch = None     # (current_epoch, last_zxid)
        self.in_stream = False   # past NEWLEADER: in the Phase-3 fan-out
        self.synced = False      # acknowledged NEWLEADER


class _Proposal:
    """An outstanding broadcast transaction awaiting quorum ACKs."""

    __slots__ = ("txn", "size", "proposed_at")

    def __init__(self, txn, size, proposed_at):
        self.txn = txn
        self.size = size
        self.proposed_at = proposed_at


#: How many propose timestamps a leader retains for late-ACK
#: attribution (see ``LeaderContext._recent_propose_t``).
_RECENT_PROPOSE_CAP = 4096


class LeaderContext:
    """Drives one leadership attempt of *peer*."""

    def __init__(self, peer):
        self.peer = peer
        self.config = peer.config
        self.epoch = None
        self.phase = PHASE_DISCOVERY
        self.established = False
        self.handles = {}
        self.followerinfos = {
            peer.peer_id: peer.storage.epochs.accepted_epoch
        }
        self.ackepochs = {peer.peer_id: self._own_position()}
        self.acked_newleader = set()
        self.counter = 0
        self.proposals = OutstandingWindow()
        self.pending = []
        self.spec_sm = None
        self.batcher = Batcher(
            peer, self.config.max_batch, self.config.batch_delay,
            self._propose_batch,
        )
        self._strategy = self.config.dissemination
        # Leader-direct is the empty plan: every voter is fed directly.
        self._relayed = not self._strategy.direct
        self._plan = ()            # relay forest
        self._plan_members = ()    # sorted member ids the plan spans
        self._plan_member_set = frozenset()
        self._fetching_from = None
        self._handshake_timer = None
        self._ping_timer = None
        self._snapshot_cache = None
        self.commits = 0
        self.acked = {}            # voter -> newest zxid it acknowledged
        self.acks_received = 0     # ACKs that advanced a voter's mark
        self.sync_modes = {}       # sync mode -> count of learners served
        self._sync_waiters = []    # (barrier_zxid, callback)
        # Propose times of recent zxids, kept past commit so ACKs that
        # arrive *after* the quorum already committed (the straggler
        # signature) can still be lag-attributed in the trace.  Only
        # populated when tracing is on; bounded, insertion-ordered.
        self._recent_propose_t = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.peer.tracer.emit(
            "leader.phase", node=self.peer.peer_id, phase=self.phase,
        )
        self._handshake_timer = self.peer.set_timer(
            self.config.handshake_timeout(), self._handshake_expired
        )
        # A single-peer ensemble is a quorum by itself.
        self._try_decide_epoch()

    def close(self):
        """Cancel timers; called when the peer leaves LEADING."""
        for timer in (self._handshake_timer, self._ping_timer):
            if timer is not None:
                self.peer.cancel_timer(timer)
        self._handshake_timer = None
        self._ping_timer = None
        self.batcher.close()

    def _handshake_expired(self):
        self._handshake_timer = None
        if not self.established:
            self.peer.go_looking("leader handshake timed out")

    def _own_position(self):
        epochs = self.peer.storage.epochs
        last = self.peer.storage.log.last_durable() or ZXID_ZERO
        return (epochs.current_epoch, last)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, src, msg):
        handle = self.handles.get(src)
        if handle is not None:
            handle.last_contact = self.peer.sim.now
        # A PONG only refreshes last_contact; anything else without a
        # handler is stale traffic from an older role.
        handler = _HANDLERS.get(msg.__class__)
        if handler is not None:
            getattr(self, handler)(src, msg)

    # ------------------------------------------------------------------
    # Phase 1: discovery
    # ------------------------------------------------------------------

    def _on_follower_info(self, src, msg):
        handle = self.handles.get(src)
        if handle is None:
            # The learner's role, fixed once: see _FollowerHandle.voter.
            handle = _FollowerHandle(
                src, src in self.config.quorum.voters, self.peer.sim.now
            )
            self.handles[src] = handle
        # A reconnecting learner restarts its handshake from scratch.
        handle.epoch_sent = False
        handle.ackepoch = None
        handle.in_stream = False
        handle.synced = False
        if handle.voter:
            self.followerinfos[src] = msg.accepted_epoch
        if self.epoch is None:
            self._try_decide_epoch()
        else:
            self._send_new_epoch(handle)

    def _try_decide_epoch(self):
        voters = set(self.followerinfos)
        if not self.config.quorum.contains_quorum(voters):
            return
        self.epoch = max(self.followerinfos.values()) + 1
        self.peer.tracer.emit(
            "leader.newepoch", node=self.peer.peer_id, epoch=self.epoch,
        )
        self.peer.storage.epochs.set_accepted_epoch(self.epoch)
        for handle in self.handles.values():
            self._send_new_epoch(handle)
        # The leader "acks" its own NEWEPOCH implicitly via ackepochs.
        self._maybe_finish_discovery()

    def _send_new_epoch(self, handle):
        if self.epoch is not None and not handle.epoch_sent:
            handle.epoch_sent = True
            self.peer.send(handle.peer_id, messages.NewEpoch(self.epoch))

    def _on_ack_epoch(self, src, msg):
        handle = self.handles.get(src)
        if handle is None:
            return
        handle.ackepoch = (msg.current_epoch, msg.last_zxid or ZXID_ZERO)
        if self.phase == PHASE_DISCOVERY:
            if handle.voter:
                self.ackepochs[src] = handle.ackepoch
            self._maybe_finish_discovery()
        elif self.phase in (PHASE_SYNC, PHASE_BROADCAST):
            # Late joiner: synchronise it individually.
            self._sync_follower(handle)

    def _maybe_finish_discovery(self):
        if self.phase != PHASE_DISCOVERY or self.epoch is None:
            return
        if not self.config.quorum.contains_quorum(set(self.ackepochs)):
            return
        best = max(
            self.ackepochs, key=lambda peer_id: self.ackepochs[peer_id]
        )
        if self.ackepochs[best] > self.ackepochs[self.peer.peer_id]:
            # Rare path: a follower's history is fresher than ours — fetch
            # it wholesale before synchronising anyone (paper Phase 1,
            # "the leader adopts the most recent history").
            self.phase = PHASE_FETCH
            self._fetching_from = best
            self.peer.send(best, messages.HistoryRequest())
        else:
            self._enter_sync()

    def _on_history_response(self, src, msg):
        if self.phase != PHASE_FETCH or src != self._fetching_from:
            return
        self.peer.adopt_history(msg.snapshot, msg.records)
        self._fetching_from = None
        self._enter_sync()

    # ------------------------------------------------------------------
    # Phase 2: synchronisation
    # ------------------------------------------------------------------

    def _enter_sync(self):
        self.phase = PHASE_SYNC
        self.peer.tracer.emit(
            "leader.phase", node=self.peer.peer_id, phase=self.phase,
            epoch=self.epoch,
        )
        # Self-ack of NEWLEADER: persist currentEpoch = e'.
        self.peer.storage.epochs.set_current_epoch(self.epoch)
        self.peer.tracer.emit(
            "peer.epoch", node=self.peer.peer_id, epoch=self.epoch,
        )
        self.acked_newleader = {self.peer.peer_id}
        for handle in self.handles.values():
            if handle.ackepoch is not None:
                self._sync_follower(handle)
        self._maybe_establish()

    def committed_horizon(self):
        """The zxid below which history is committed (sync target)."""
        if self.established:
            return self.peer.last_committed or ZXID_ZERO
        return self.peer.storage.log.last_durable() or ZXID_ZERO

    def _snapshot_provider(self):
        horizon = self.committed_horizon()
        if (
            self._snapshot_cache is None
            or self._snapshot_cache.last_zxid != horizon
        ):
            self._snapshot_cache = self.peer.build_snapshot(horizon)
        return self._snapshot_cache

    def _sync_follower(self, handle):
        current_epoch, follower_last = handle.ackepoch
        plan = make_sync_plan(
            self.peer.storage.log,
            follower_last,
            self.committed_horizon(),
            self.config.snap_sync_threshold,
            self._snapshot_provider,
        )
        self.sync_modes[plan.mode] = self.sync_modes.get(plan.mode, 0) + 1
        self.peer.tracer.emit(
            "leader.sync", node=self.peer.peer_id,
            follower=handle.peer_id, mode=plan.mode,
            records=len(plan.records), bytes=plan.payload_bytes(),
        )
        dst = handle.peer_id
        self.peer.send(
            dst,
            messages.SyncStart(
                plan.mode,
                trunc_zxid=plan.trunc_zxid,
                snapshot=plan.snapshot,
            ),
        )
        for record in plan.records:
            self.peer.send(
                dst, messages.SyncTxn(record.zxid, record.txn, record.size)
            )
        self.peer.send(
            dst,
            messages.NewLeader(
                self.epoch, last_zxid=self.committed_horizon()
            ),
        )
        # In the Phase-3 fan-out from here on (FIFO: after NEWLEADER).  A
        # voter gets the outstanding proposals again to acknowledge them;
        # an observer gets each as INFORM when it commits.
        handle.in_stream = True
        if handle.voter:
            horizon = self.committed_horizon()
            if horizon.epoch == self.epoch:  # the sync covered it
                self.acked[dst] = max_zxid(self.acked.get(dst), horizon)
            for zxid, proposal in self.proposals.items():
                self.peer.send(
                    dst, messages.Propose(zxid, proposal.txn, proposal.size)
                )

    def _on_ack_new_leader(self, src, msg):
        handle = self.handles.get(src)
        if handle is None or msg.epoch != self.epoch:
            return
        handle.synced = True
        if handle.voter:
            self.acked_newleader.add(src)
        if self.established:
            self.peer.send(src, messages.UpToDate(self.epoch))
        else:
            self._maybe_establish()

    def _maybe_establish(self):
        if self.established:
            return
        if not self.config.quorum.contains_quorum(self.acked_newleader):
            return
        self._establish()

    def _establish(self):
        self.established = True
        self.phase = PHASE_BROADCAST
        self.peer.tracer.emit(
            "leader.established", node=self.peer.peer_id, epoch=self.epoch,
            synced=sorted(self.acked_newleader),
        )
        self.peer.tracer.emit(
            "leader.phase", node=self.peer.peer_id, phase=self.phase,
            epoch=self.epoch,
        )
        if self._handshake_timer is not None:
            self.peer.cancel_timer(self._handshake_timer)
            self._handshake_timer = None
        # The adopted initial history is committed by NEWLEADER quorum.
        self.peer.note_established_leader(self.epoch)
        self.spec_sm = self.peer.clone_state_machine()
        for handle in self.handles.values():
            if handle.synced:
                self.peer.send(
                    handle.peer_id, messages.UpToDate(self.epoch)
                )
        self._arm_ping()
        self._drain_pending()

    # ------------------------------------------------------------------
    # Phase 3: broadcast
    # ------------------------------------------------------------------

    def _on_forwarded_request(self, src, msg):
        self.submit(
            PendingRequest(
                msg.request_id, msg.client, msg.origin, msg.op, msg.size
            )
        )

    def submit(self, request):
        """Accept a client write (queues until established / window free)."""
        if not self.established:
            self.pending.append(request)
            return
        self.batcher.add(request)

    def _propose_batch(self, batch):
        for request in batch:
            if len(self.proposals) >= self.config.max_outstanding:
                self.pending.append(request)
            else:
                self._propose(request)

    def _propose(self, request):
        body = self.spec_sm.prepare(request.op)
        self.spec_sm.apply(body)
        self.counter += 1
        zxid = Zxid(self.epoch, self.counter)
        txn = Txn(
            txn_id="t%d.%d" % (self.epoch, self.counter),
            request_id=request.request_id,
            client=request.client,
            origin=request.origin,
            body=body,
            size=request.size,
        )
        if self.peer.trace is not None:
            self.peer.trace.record_broadcast(
                self.peer.peer_id, self.epoch, zxid, txn.txn_id
            )
        tracer = self.peer.tracer
        if tracer.active:
            tracer.emit(
                "leader.propose", node=self.peer.peer_id,
                zxid=zxid.as_tuple(), size=request.size,
            )
        proposal = _Proposal(txn, request.size, self.peer.sim.now)
        self.proposals[zxid] = proposal
        if tracer.active:
            recent = self._recent_propose_t
            recent[zxid] = proposal.proposed_at
            if len(recent) > _RECENT_PROPOSE_CAP:
                del recent[next(iter(recent))]
        self._disseminate(messages.Propose(zxid, txn, request.size))
        self.peer.storage.log.append(
            zxid, txn, request.size,
            callback=functools.partial(
                self._on_ack, self.peer.peer_id, messages.Ack(zxid)),
        )

    def _on_ack(self, src, msg):
        """Advance *src*'s mark: ACK(z) covers every zxid <= z."""
        handle = self.handles.get(src)
        if handle is not None and not handle.voter:
            return  # a non-voting learner's ACK never counts
        zxid = msg.zxid
        prev = self.acked.get(src)
        if (
            zxid.epoch != self.epoch or zxid.counter > self.counter
            or (prev is not None and zxid <= prev)
        ):
            return  # stale, never proposed, or covers nothing new
        self.acked[src] = zxid
        if handle is not None:
            handle.last_ack = self.peer.sim.now
        self.acks_received += 1
        tracer = self.peer.tracer
        if tracer.active:
            # Lag runs from the oldest newly covered proposal (the oldest
            # outstanding one if *first* predates the retained times); an
            # ACK whose whole range already committed is *late*.
            first = prev.next() if prev is not None else Zxid(self.epoch, 1)
            proposed_at = self._recent_propose_t.get(first)
            if proposed_at is None and zxid in self.proposals:
                oldest = max(first, next(iter(self.proposals)))
                proposed_at = self.proposals[oldest].proposed_at
            if proposed_at is not None:
                tracer.emit(
                    "leader.ack", node=self.peer.peer_id,
                    zxid=zxid.as_tuple(), first=first.as_tuple(), src=src,
                    lag=self.peer.sim.now - proposed_at,
                    late=zxid not in self.proposals,
                )
        if self.proposals and zxid >= next(iter(self.proposals)):
            self._try_commit(src)   # the head may have become quorate

    def _quorate(self, zxid):
        """True once the voters whose mark covers *zxid* hold a quorum."""
        return self.config.quorum.contains_quorum(
            [voter for voter, mark in self.acked.items() if mark >= zxid]
        )

    def _try_commit(self, src):
        """Commit the quorate run at the head; one COMMIT, naming the
        newest zxid delivered locally, then covers the whole run."""
        proposals = self.proposals
        before = self.peer.last_committed
        tracer = self.peer.tracer
        committed = []
        while proposals and self._quorate(next(iter(proposals))):
            zxid, proposal = proposals.popitem(last=False)
            committed.append((zxid, proposal))
            if tracer.active:
                tracer.emit(
                    "leader.quorum", node=self.peer.peer_id,
                    zxid=zxid.as_tuple(), src=src,
                    acks=sum(1 for m in self.acked.values() if m >= zxid),
                    lag=self.peer.sim.now - proposal.proposed_at,
                )
            self._commit(zxid, proposal)
        if not committed:
            return
        if self.peer.last_committed != before:
            self._disseminate(
                messages.Commit(self.peer.last_committed), committed
            )
        self._drain_pending()

    def _commit(self, zxid, proposal):
        """Deliver one committed proposal locally (the COMMIT follows)."""
        self.commits += 1
        tracer = self.peer.tracer
        if tracer.active:
            tracer.emit(
                "leader.commit", node=self.peer.peer_id,
                zxid=zxid.as_tuple(),
                acks=sorted(p for p, m in self.acked.items() if m >= zxid),
                outstanding=len(self.proposals),
            )
        self.peer.commit_local(zxid, proposal.txn)
        if self._sync_waiters:
            self._flush_sync_waiters(zxid)

    # ------------------------------------------------------------------
    # Phase-3 fan-out
    # ------------------------------------------------------------------

    def _refresh_plan(self):
        """Recompute the relay forest when plan membership changed.

        Plan members are the *synced* voter followers still in live
        contact; a crashed relay falls out after ``staleness_timeout``
        so new proposals route around it.  Followers that are in the
        broadcast stream but not (yet, or no longer) plan members are
        fed directly — FIFO with their sync stream, which makes the
        direct->relayed handoff at sync completion safe.
        """
        horizon = self.peer.sim.now - self.config.staleness_timeout()
        members = tuple(sorted(
            handle.peer_id
            for handle in self.handles.values()
            if handle.synced and handle.voter
            and handle.last_contact >= horizon
        ))
        if members != self._plan_members:
            self._plan_members = members
            self._plan_member_set = frozenset(members)
            self._plan = self._strategy.plan(self.peer.peer_id, members)
            tracer = self.peer.tracer
            if tracer.active:
                tracer.emit(
                    "leader.plan", node=self.peer.peer_id,
                    topology=self._strategy.name, members=list(members),
                )
        return self._plan

    def _disseminate(self, message, committed=()):
        """Send one PROPOSE or COMMIT to every learner in the stream.

        In handle order: a voter outside the relay plan gets *message*,
        an observer an INFORM per *committed* ``(zxid, proposal)``; then
        the plan members get *message* along the plan.
        """
        plan = self._refresh_plan() if self._relayed else ()
        members = self._plan_member_set
        send = self.peer.send
        informs = None
        for handle in self.handles.values():
            if not handle.in_stream:
                continue
            if handle.voter:
                if handle.peer_id not in members:
                    send(handle.peer_id, message)
            elif committed:
                if informs is None:
                    informs = [messages.Inform(z, p.txn, p.size)
                               for z, p in committed]
                for inform in informs:
                    send(handle.peer_id, inform)
        for node, children in plan:
            if children:
                send(node, messages.Relay(
                    self.peer.peer_id, self.epoch, message, children
                ))
            else:
                send(node, message)

    # ------------------------------------------------------------------
    # Read-path flush (ZooKeeper's sync())
    # ------------------------------------------------------------------

    def _on_sync_request(self, src, msg):
        """Answer once everything currently outstanding has committed."""
        self.sync_barrier(lambda frontier: self.peer.send(
            src, messages.SyncReply(msg.cookie, frontier)
        ))

    def sync_barrier(self, callback):
        """Run *callback(frontier)* once every currently-outstanding
        proposal has committed (the linearizable read point)."""
        if not self.proposals:
            callback(self.peer.last_committed or ZXID_ZERO)
            return
        barrier = next(reversed(self.proposals))  # newest outstanding
        self._sync_waiters.append((barrier, callback))

    def _flush_sync_waiters(self, committed_zxid):
        remaining = []
        for barrier, callback in self._sync_waiters:
            if barrier <= committed_zxid:
                callback(committed_zxid)
            else:
                remaining.append((barrier, callback))
        self._sync_waiters = remaining

    def _drain_pending(self):
        while (
            self.pending
            and self.established
            and len(self.proposals) < self.config.max_outstanding
        ):
            self._propose(self.pending.pop(0))

    # ------------------------------------------------------------------
    # Heartbeats and quorum supervision
    # ------------------------------------------------------------------

    def _arm_ping(self):
        self._ping_timer = self.peer.set_timer(
            self.config.tick, self._on_ping_tick
        )

    def _on_ping_tick(self):
        self._ping_timer = None
        digest_position, digest = self.peer.latest_digest()
        ping = messages.Ping(
            self.peer.last_committed or ZXID_ZERO,
            digest_position=digest_position,
            digest=digest,
        )
        for handle in self.handles.values():
            if handle.in_stream:
                self.peer.send(handle.peer_id, ping)
        alive = {self.peer.peer_id}
        now = self.peer.sim.now
        horizon = now - self.config.staleness_timeout()
        # When proposals have been stuck outstanding past the staleness
        # budget, heartbeat replies alone do not count: a follower must
        # be making ACK *progress* to stay in the synced set (a wedged
        # disk answers pings forever but can never acknowledge).
        head = self.proposals.head()
        stalled_since = (
            head[1].proposed_at
            if head is not None
            and now - head[1].proposed_at
            > self.config.staleness_timeout()
            else None
        )
        # Observers may land in *alive*: no quorum verifier counts them.
        for handle in self.handles.values():
            if handle.last_contact < horizon or (
                stalled_since is not None
                and handle.in_stream
                and handle.last_ack < stalled_since   # no ACK progress
            ):
                continue
            alive.add(handle.peer_id)
        if not self.config.quorum.contains_quorum(alive):
            self.peer.go_looking("leader lost follower quorum")
            return
        self._arm_ping()
