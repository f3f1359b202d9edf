"""Fast Leader Election — the Phase 0 leader oracle.

FLE elects the voter with the most advanced ``(currentEpoch, lastZxid)``
among a quorum, breaking ties by server id.  Electing the peer with the
freshest history is what lets Zab's discovery phase usually skip history
transfer: the elected leader already has every transaction that could have
been committed.

The implementation follows ZooKeeper's: logical election rounds, a
*recvset* of votes from peers still LOOKING, an *outofelection* set of
votes from peers already serving (used by rejoining nodes to find the
established leader), vote re-broadcast on change, and a finalize wait that
gives a better straggler vote a chance to arrive before committing to a
winner.
"""

from repro.zab import messages
from repro.zab.zxid import ZXID_ZERO

#: Grace period after reaching quorum agreement, allowing a straggling
#: better vote to arrive before the winner is committed to (seconds).
FINALIZE_WAIT = 0.02

#: Resend period for notifications while LOOKING (plus up to 20 %
#: jitter), and an observer's probe period (seconds).
NOTIFICATION_INTERVAL = 0.1


def _vote_key(peer_epoch, zxid, leader):
    """Total order on votes: epoch, then zxid, then server id."""
    return (peer_epoch, zxid if zxid is not None else ZXID_ZERO, leader)


class FastLeaderElection:
    """One peer's view of the ongoing election."""

    def __init__(self, peer):
        self.peer = peer
        self.round = 0
        self.vote = None              # (peer_epoch, zxid, leader_id)
        self.recvset = {}             # voter -> vote (same round, LOOKING)
        self.outofelection = {}       # voter -> (vote, sender_state)
        self._resend_timer = None
        self._finalize_timer = None
        self._finalize_vote = None
        self.elected_vote = None      # vote we last elected with

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Begin (or restart) an election round.  Peer must be LOOKING."""
        self.stop()
        self.round += 1
        epoch, zxid = self.peer.vote_basis()
        self.peer.tracer.emit(
            "election.start", node=self.peer.peer_id,
            round=self.round, epoch=epoch, zxid=zxid.as_tuple(),
        )
        self.vote = _vote_key(epoch, zxid, self.peer.peer_id)
        self.recvset = {self.peer.peer_id: self.vote}
        self.outofelection = {}
        self._broadcast()
        self._arm_resend()
        self._check_agreement()

    def stop(self):
        """Cancel timers; called when the peer leaves LOOKING or crashes."""
        if self._resend_timer is not None:
            self.peer.cancel_timer(self._resend_timer)
            self._resend_timer = None
        if self._finalize_timer is not None:
            self.peer.cancel_timer(self._finalize_timer)
            self._finalize_timer = None
        self._finalize_vote = None

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------

    def _notification(self):
        peer_epoch, zxid, leader = self.vote
        return messages.Notification(
            leader=leader,
            zxid=zxid,
            peer_epoch=peer_epoch,
            round=self.round,
            sender_state=self.peer.state,
        )

    def _broadcast(self):
        note = self._notification()
        for voter in self.peer.config.voters:
            if voter != self.peer.peer_id:
                self.peer.send(voter, note)

    def _send_to(self, dst):
        self.peer.send(dst, self._notification())

    def _arm_resend(self):
        jitter = self.peer.rng.uniform(0.0, NOTIFICATION_INTERVAL * 0.2)
        self._resend_timer = self.peer.election_timer(
            NOTIFICATION_INTERVAL + jitter, self._resend
        )

    def _resend(self):
        self._resend_timer = None
        if self.peer.state == messages.LOOKING:
            self._broadcast()
            self._arm_resend()

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------

    def on_notification(self, src, note):
        """Process one incoming vote.

        If this peer is no longer LOOKING it answers LOOKING senders with
        its current (elected) vote so they can locate the leader.
        """
        if self.peer.state != messages.LOOKING:
            if note.sender_state in (messages.LOOKING, messages.OBSERVING):
                self._reply_with_elected(src)
            return

        if note.sender_state == messages.LOOKING:
            self._on_looking_vote(src, note)
        else:
            self._on_serving_vote(src, note)

    def _on_looking_vote(self, src, note):
        if note.round > self.round:
            # We are behind: adopt the newer round and re-seed our vote.
            self.round = note.round
            self.recvset = {}
            epoch, zxid = self.peer.vote_basis()
            base = _vote_key(epoch, zxid, self.peer.peer_id)
            self.vote = max(base, note.vote())
            self._broadcast()
        elif note.round < self.round:
            # Sender is behind: help it catch up, ignore its stale vote.
            self._send_to(src)
            return
        elif note.vote() > self.vote:
            self.vote = note.vote()
            self._broadcast()
        elif note.vote() < self.vote:
            # Make sure the sender learns about our better vote even if it
            # missed our original broadcast (e.g. it registered late).
            self._send_to(src)

        self.recvset[src] = note.vote()
        self.recvset[self.peer.peer_id] = self.vote
        self._check_agreement()

    def _on_serving_vote(self, src, note):
        self.outofelection[src] = (note.vote(), note.sender_state)
        leader = note.leader
        supporters = {
            voter
            for voter, (vote, _state) in self.outofelection.items()
            if vote[2] == leader
        }
        leader_claims = (
            leader in self.outofelection
            and self.outofelection[leader][1] == messages.LEADING
        )
        if leader_claims and self.peer.config.quorum.contains_quorum(
            supporters
        ):
            # Adopt the leader's vote so that our own replies (and
            # elected_vote) point future joiners at the leader, not at us.
            self.vote = self.outofelection[leader][0]
            self._decide(leader)

    def _reply_with_elected(self, dst):
        vote = self.elected_vote or self.vote
        if vote is None:
            return
        peer_epoch, zxid, leader = vote
        self.peer.send(
            dst,
            messages.Notification(
                leader=leader,
                zxid=zxid,
                peer_epoch=peer_epoch,
                round=self.round,
                sender_state=self.peer.state,
            ),
        )

    # ------------------------------------------------------------------
    # Deciding
    # ------------------------------------------------------------------

    def _check_agreement(self):
        agreeing = {
            voter
            for voter, vote in self.recvset.items()
            if vote == self.vote
        }
        if not self.peer.config.quorum.contains_quorum(agreeing):
            self._cancel_finalize()
            return
        if (
            self._finalize_timer is not None
            and self._finalize_vote == self.vote
        ):
            return  # already counting down for this vote
        self._cancel_finalize()
        self._finalize_vote = self.vote
        self._finalize_timer = self.peer.election_timer(
            FINALIZE_WAIT, self._finalize
        )

    def _finalize(self):
        self._finalize_timer = None
        if (
            self.peer.state == messages.LOOKING
            and self.vote == self._finalize_vote
        ):
            self._decide(self.vote[2])

    def _cancel_finalize(self):
        if self._finalize_timer is not None:
            self.peer.cancel_timer(self._finalize_timer)
            self._finalize_timer = None
        self._finalize_vote = None

    def _decide(self, leader):
        self.elected_vote = self.vote
        self.peer.tracer.emit(
            "election.decided", node=self.peer.peer_id,
            leader=leader, round=self.round,
        )
        self.stop()
        self.peer.on_election_decided(leader)
