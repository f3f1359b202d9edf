"""Workload drivers.

Two load models:

- :class:`ClosedLoopDriver` — a fixed number of outstanding operations;
  each commit immediately triggers the next submission.  With enough
  outstanding operations this *saturates* the leader, which is the
  condition of the paper's throughput-vs-ensemble-size experiment.  It
  drives anything with ``sim``, ``leader()`` and a leader's
  ``propose_op(op, callback(result, zxid), size)``: a ``Cluster`` of
  either protocol (Zab, or ``ClusterConfig(protocol="paxos")``).  It
  survives leader changes by re-resolving the leader and retrying.
- :class:`OpenLoopDriver` — Poisson writes at a target rate, independent
  of completions: the latency-vs-offered-load sweep (where the
  interesting feature is the saturation knee) and the failure timeline.
  An arrival that finds no leader is counted in ``rejected`` and
  dropped, not retried, so the offered schedule never bunches up behind
  an election.

Both submit writes directly at the current leader (``propose_op``),
measuring the broadcast layer itself rather than client networking.
Each driver owns one :class:`~repro.obs.metrics.StreamingHistogram`
(``driver.latency``) and observes every post-warm-up commit in it
exactly once.
"""

from repro.bench.metrics import Timeline
from repro.common.errors import NotLeaderError
from repro.obs.metrics import StreamingHistogram

#: Simulated seconds a closed-loop slot waits before retrying a
#: submission that found no leader.
RETRY_INTERVAL = 0.05

#: Simulated seconds without a commit after which the closed loop
#: assumes its window died with a crashed leader and refills it.
STALL_TIMEOUT = 0.5


class ClosedLoopDriver:
    """Keeps *outstanding* operations permanently in flight.

    Operations in flight at a leader that crashes lose their callbacks
    (their transactions may still commit later, answered by nobody); a
    stall watchdog notices the silence and refills the window once a new
    leader establishes, so the driver keeps saturating the cluster
    across failovers.
    """

    def __init__(self, cluster, outstanding, op_factory, op_size,
                 warmup=0.0):
        self.cluster = cluster
        self.outstanding = outstanding
        self.op_factory = op_factory
        self.op_size = op_size
        self.latency = StreamingHistogram()
        # Warm-up and timeline windows count from here.
        self.started_at = cluster.sim.now
        self._warmup_until = self.started_at + warmup
        self.timeline = Timeline()
        self.submitted = 0
        self.committed = 0
        self.stopped = False
        self._in_flight = 0
        self._last_activity = cluster.sim.now

    def start(self):
        for _ in range(self.outstanding):
            self._pump()
        self._arm_watchdog()
        return self

    def stop(self):
        self.stopped = True

    def _submit_one(self):
        leader = self.cluster.leader()
        if leader is None:
            return False
        submit_time = self.cluster.sim.now

        def on_commit(result, zxid, t0=submit_time):
            now = self.cluster.sim.now
            self.committed += 1
            if now >= self._warmup_until:
                self.latency.observe(now - t0)
            self.timeline.add(now)
            self._in_flight -= 1
            self._last_activity = now
            self._pump()

        try:
            leader.propose_op(
                self.op_factory(self.submitted), callback=on_commit,
                size=self.op_size,
            )
        except NotLeaderError:
            return False
        self.submitted += 1
        return True

    def _pump(self):
        if self.stopped:
            return
        if self._submit_one():
            self._in_flight += 1
            self._last_activity = self.cluster.sim.now
        else:
            # No leader right now (election in progress): retry shortly.
            self.cluster.sim.schedule(RETRY_INTERVAL, self._pump)

    def _arm_watchdog(self):
        if self.stopped:
            return
        self.cluster.sim.schedule(STALL_TIMEOUT, self._watchdog)

    def _watchdog(self):
        if self.stopped:
            return
        silent = self.cluster.sim.now - self._last_activity
        if silent >= STALL_TIMEOUT and self.cluster.leader() is not None:
            # The previous window died with a crashed leader; refill.
            self._in_flight = 0
            for _ in range(self.outstanding):
                self._pump()
        self._arm_watchdog()


#: Keys the open loop spreads its puts over (``key-0`` .. ``key-63``).
OPEN_LOOP_KEYS = 64


class OpenLoopDriver:
    """Poisson ``put`` arrivals at *rate* ops per simulated second.

    Arrivals come from the cluster's ``aggload:open-loop`` PRNG stream:
    an ``expovariate(rate)`` gap schedules each arrival, and a
    ``randrange(64)`` draw when it fires picks its key, so one seed gives
    one arrival schedule whichever caller asks.  Each arrival proposes
    ``("put", key, "v" * op_size)`` at the current leader; with no
    leader it is counted in ``rejected`` and dropped.  The bench runner
    reads the same ``latency`` / ``timeline`` / ``started_at`` /
    ``submitted`` / ``committed`` surface as :class:`ClosedLoopDriver`.
    """

    def __init__(self, cluster, rate, op_size=1024, warmup=0.0):
        if not 0 < rate < float("inf"):   # also rejects NaN
            raise ValueError(
                "rate must be a finite positive number, not %r" % (rate,)
            )
        self.cluster = cluster
        self.rate = rate
        self.op_size = op_size
        self._payload = "v" * op_size
        self._rng = cluster.sim.random.stream("aggload:open-loop")
        self.latency = StreamingHistogram()
        self.started_at = cluster.sim.now
        self._warmup_until = self.started_at + warmup
        self.timeline = Timeline()
        self.submitted = 0
        self.committed = 0
        self.rejected = 0
        self.stopped = False

    def start(self):
        self._schedule_next()
        return self

    def stop(self):
        self.stopped = True

    def _schedule_next(self):
        self.cluster.sim.schedule(
            self._rng.expovariate(self.rate), self._arrival
        )

    def _arrival(self):
        if self.stopped:
            return
        key = "key-%d" % self._rng.randrange(OPEN_LOOP_KEYS)
        self._write(key)
        self._schedule_next()

    def _write(self, key):
        leader = self.cluster.leader()
        if leader is None:
            self.rejected += 1
            return
        submit_time = self.cluster.sim.now

        def on_commit(result, zxid, t0=submit_time):
            now = self.cluster.sim.now
            self.committed += 1
            if now >= self._warmup_until:
                self.latency.observe(now - t0)
            self.timeline.add(now)

        try:
            leader.propose_op(
                ("put", key, self._payload), callback=on_commit,
                size=self.op_size,
            )
        except NotLeaderError:
            self.rejected += 1
            return
        self.submitted += 1
