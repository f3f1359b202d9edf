"""Seeded load generators owned by the benchmark.

Inputs are drawn up front from a ``random.Random(seed)``: a list of due
times and op tuples for the open loops, a key sequence for the closed
loop.  The program under test receives nothing but those inputs, through
``peer.propose_op``, ``peer.sync_read`` and ``peer.sm.read``.

Arrivals are simulator events scheduled at their due time, so the
generator is never late in simulated time (lateness is 0 by
construction) and every latency is measured from the time the request
was *due*, which charges a stall to the requests that queued behind it.
"""

PUT, READ, SYNC_READ = "put", "read", "sync_read"


def padded_value(index, nbytes):
    """A value of *nbytes* characters that is unique per *index*."""
    head = "%010d" % index
    return head + "x" * (nbytes - len(head))


def key_name(index):
    return "k%05d" % index


def unique_key(index):
    return "u%07d" % index


def poisson_times(rng, rate, start, duration):
    """Due times of a Poisson process of *rate*/s over [start, start+duration)."""
    times = []
    now = start
    end = start + duration
    while True:
        now += rng.expovariate(rate)
        if now >= end:
            return times
        times.append(now)


def fixed_times(rate, start, duration):
    """Due times of a constant-rate open loop."""
    return [start + index / rate for index in range(int(rate * duration))]


def mixed_arrivals(rng, times, n_keys, replicas, sync_replicas, value_bytes,
                   first_index, read_share, sync_share):
    """``[(due, kind, peer_id, op)]``: local reads, sync reads and puts."""
    arrivals = []
    for offset, due in enumerate(times):
        draw = rng.random()
        key = key_name(rng.randrange(n_keys))
        if draw < read_share:
            arrivals.append((due, READ, rng.choice(replicas), ("get", key)))
        elif draw < read_share + sync_share:
            arrivals.append(
                (due, SYNC_READ, rng.choice(sync_replicas), ("get", key))
            )
        else:
            value = padded_value(first_index + offset, value_bytes)
            arrivals.append((due, PUT, None, ("put", key, value)))
    return arrivals


def unique_put_arrivals(times, value_bytes):
    """One put per due time, each to a key nobody else writes."""
    return [
        (due, PUT, None,
         ("put", unique_key(index), padded_value(index, value_bytes)))
        for index, due in enumerate(times)
    ]


class Tally:
    """Completions that fall inside one measured window of simulated time."""

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.reads = 0
        self.commit_s = []        # due -> commit callback, seconds
        self.sync_read_s = []     # due -> sync_read callback, seconds

    def completed(self):
        return self.reads + len(self.commit_s) + len(self.sync_read_s)


class _Generator:
    """Bookkeeping shared by both loops."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.tally = None         # the window completions are counted in
        self.issued = 0           # ops whose due time has come
        self.answered = 0         # ops that got their (first) answer
        self.errored = 0          # answers that were errors
        self.acked = []           # (zxid, key, value) of acknowledged puts
        self.commit_times = []    # simulated time of each first commit ack
        self.on_answer = None     # optional callable(), after each answer

    def unanswered(self):
        return self.issued - self.answered

    def _note_commit(self, due, zxid, op):
        now = self.sim.now
        self.answered += 1
        self.acked.append((zxid, op[1], op[2]))
        self.commit_times.append(now)
        tally = self.tally
        if tally is not None and tally.start <= now < tally.end:
            tally.commit_s.append(now - due)
        if self.on_answer is not None:
            self.on_answer()


class ClosedLoop(_Generator):
    """*outstanding* clients, each submitting its next put on commit."""

    def __init__(self, cluster, leader, key_indices, value_bytes,
                 outstanding, stop_at, first_index=0):
        _Generator.__init__(self, cluster)
        self.leader = leader
        self.keys = iter(key_indices)
        self.value_bytes = value_bytes
        self.outstanding = outstanding
        self.stop_at = stop_at
        self.next_index = first_index

    def start(self):
        for _ in range(self.outstanding):
            self._submit()

    def _submit(self):
        index = self.next_index
        self.next_index = index + 1
        key_index = next(self.keys, None)
        if key_index is None:
            raise LookupError("closed loop ran out of pre-drawn keys")
        op = ("put", key_name(key_index),
              padded_value(index, self.value_bytes))
        due = self.sim.now
        self.issued += 1

        def on_commit(_result, zxid):
            self._note_commit(due, zxid, op)
            if self.sim.now < self.stop_at:
                self._submit()

        self.leader.propose_op(op, callback=on_commit)


class OpenLoop(_Generator):
    """Issues pre-drawn arrivals at their due times, whatever happens.

    Puts go to the current established leader.  With *retry* (the
    crash workload) a put that is due while no leader exists waits, and
    a put accepted by a leader that then loses its role is submitted
    again to the next one — what a client library does — so the outage
    shows up as latency measured from the original due time, not as a
    lost operation.  Re-submitting is safe because those puts are
    idempotent (unique key, fixed value).
    """

    def __init__(self, cluster, arrivals, retry=False):
        _Generator.__init__(self, cluster)
        self.arrivals = arrivals
        self.retry = retry
        self.rejected = 0         # puts that found no leader when due
        self.retried = 0          # puts submitted again after a leader loss
        self._next = 0
        self._leader = None
        self._term = None         # (leader id, epoch) puts were last sent to
        self._waiting = []        # arrival indices no leader has taken yet
        self._inflight = {}       # arrival index -> (due, op), unanswered

    def start(self):
        if self.arrivals:
            self.sim.schedule_at(self.arrivals[0][0], self._fire)

    def _fire(self):
        index = self._next
        due, kind, peer_id, op = self.arrivals[index]
        self._next = index + 1
        if self._next < len(self.arrivals):
            self.sim.schedule_at(self.arrivals[self._next][0], self._fire)
        self.issued += 1
        if kind == READ:
            self.cluster.peers[peer_id].sm.read(op)
            self.answered += 1
            tally = self.tally
            if tally is not None and tally.start <= due < tally.end:
                tally.reads += 1
            if self.on_answer is not None:
                self.on_answer()
        elif kind == SYNC_READ:
            self.cluster.peers[peer_id].sync_read(
                op, lambda result: self._on_sync_read(due, result)
            )
        else:
            self._put(index, due, op)

    def _on_sync_read(self, due, result):
        self.answered += 1
        if isinstance(result, tuple) and result and result[0] == "error":
            self.errored += 1
        tally = self.tally
        now = self.sim.now
        if tally is not None and tally.start <= now < tally.end:
            tally.sync_read_s.append(now - due)
        if self.on_answer is not None:
            self.on_answer()

    def _current_leader(self):
        leader = self._leader
        if (leader is None or leader.crashed
                or not leader.is_established_leader):
            leader = self._leader = self.cluster.leader()
        return leader

    def _put(self, index, due, op):
        leader = self._current_leader()
        if leader is None:
            self.rejected += 1
        if self.retry:
            self._inflight[index] = (due, op)
            if (leader is None or self._waiting
                    or self._term != (leader.peer_id, leader.current_epoch())):
                # Behind the puts already waiting, so due order is kept.
                self._waiting.append(index)
                self.resubmit_after_leader_change()
                return
        if leader is not None:
            self._propose(leader, index, due, op)

    def _propose(self, leader, index, due, op):
        leader.propose_op(
            op, callback=lambda _r, zxid: self._on_commit(index, due, zxid, op)
        )

    def _on_commit(self, index, due, zxid, op):
        if self.retry and self._inflight.pop(index, None) is None:
            return  # a second answer to a put that was submitted twice
        self._note_commit(due, zxid, op)

    def resubmit_after_leader_change(self):
        """Hand waiting puts, and after a leader change every unanswered
        put, to the current leader (call it periodically)."""
        leader = self._current_leader()
        if leader is None:
            return
        term = (leader.peer_id, leader.current_epoch())
        if term != self._term:
            pending = sorted(self._inflight)
            self.retried += len(pending) - len(self._waiting)
            self._term = term
        else:
            pending = self._waiting
        self._waiting = []
        for index in pending:
            due, op = self._inflight[index]
            self._propose(leader, index, due, op)


class Ticker:
    """A benchmark-owned periodic simulator event (lag sampling, polls)."""

    def __init__(self, sim, period, fn):
        self.sim = sim
        self.period = period
        self.fn = fn
        self.stopped = False

    def start(self):
        self.sim.schedule(self.period, self._tick)
        return self

    def stop(self):
        self.stopped = True

    def _tick(self):
        if self.stopped:
            return
        self.fn()
        self.sim.schedule(self.period, self._tick)
