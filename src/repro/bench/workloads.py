"""Workload drivers.

Two load models:

- :class:`ClosedLoopDriver` — a fixed number of outstanding operations;
  each commit immediately triggers the next submission.  With enough
  outstanding operations this *saturates* the leader, which is the
  condition of the paper's throughput-vs-ensemble-size experiment.  It
  drives anything with ``sim``, ``leader()`` and a leader's
  ``propose_op(op, callback(result, zxid), size)``: a ``Cluster`` of
  either protocol (Zab, or ``ClusterConfig(protocol="paxos")``).
- :class:`AggregateOpenLoopDriver` — open-loop arrivals, independent of
  completions, from *populations* of sessions modelled as a single
  arrival process per :class:`SessionClass`.  Superposition of N
  independent Poisson(r) processes is exactly Poisson(N·r), so a
  million simulated clients cost one event stream instead of a million
  driver objects.  :func:`open_loop` is the one-class write-only case:
  Poisson writes at a target rate, used for the latency-vs-offered-load
  sweep (where the interesting feature is the saturation knee) and the
  failure timeline.

Both submit writes directly at the current leader (``propose_op``),
measuring the broadcast layer itself rather than client networking, and
survive leader changes by re-resolving the leader and retrying.  Each
driver owns one :class:`~repro.obs.metrics.StreamingHistogram`
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


#: Arrival models a :class:`SessionClass` understands.
ARRIVAL_MODELS = ("poisson", "uniform", "fixed")


class SessionClass:
    """Aggregate arrival model for a population of identical sessions.

    Instead of one driver object per simulated client, a class models
    the *population*: ``sessions`` clients each issuing
    ``rate_per_session`` ops per simulated second collapse into one
    arrival process at the aggregate rate.  For ``poisson`` this is
    mathematically exact (superposition of independent Poisson
    processes); ``uniform`` draws inter-arrivals uniformly on
    ``[0, 2/rate]`` (same mean, bounded burstiness) and ``fixed`` is a
    metronome at ``1/rate`` — useful for worst-case pacing studies.

    ``read_fraction`` of arrivals are reads, served locally at a live
    replica's state machine (reads in this system never touch the
    broadcast layer); the rest are ``put`` writes proposed at the
    leader.  ``op_size`` is either an int (fixed payload bytes) or
    ``("uniform", lo, hi)`` for a per-op size draw.
    """

    __slots__ = ("name", "sessions", "rate_per_session", "read_fraction",
                 "arrival", "op_size", "keys")

    def __init__(self, name, sessions, rate_per_session, read_fraction=0.0,
                 arrival="poisson", op_size=128, keys=64):
        if sessions < 1:
            raise ValueError("sessions must be >= 1")
        if rate_per_session <= 0:
            raise ValueError("rate_per_session must be positive")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if arrival not in ARRIVAL_MODELS:
            raise ValueError(
                "arrival must be one of %r" % (ARRIVAL_MODELS,)
            )
        if isinstance(op_size, tuple) and op_size[:1] == ("uniform",):
            bounds = op_size[1:]
        else:
            bounds = (op_size, op_size)
        if not (len(bounds) == 2
                and all(type(size) is int for size in bounds)
                and 0 < bounds[0] <= bounds[1]):
            raise ValueError(
                "op_size must be a positive int or ('uniform', lo, hi) "
                "with 0 < lo <= hi, not %r" % (op_size,)
            )
        self.name = name
        self.sessions = sessions
        self.rate_per_session = rate_per_session
        self.read_fraction = read_fraction
        self.arrival = arrival
        self.op_size = op_size
        self.keys = keys

    @property
    def aggregate_rate(self):
        """Offered ops per simulated second across the population."""
        return self.sessions * self.rate_per_session

    def sample_interarrival(self, rng):
        rate = self.aggregate_rate
        if self.arrival == "poisson":
            return rng.expovariate(rate)
        if self.arrival == "uniform":
            return rng.uniform(0.0, 2.0 / rate)
        return 1.0 / rate

    def sample_size(self, rng):
        if isinstance(self.op_size, int):
            return self.op_size
        _uniform, lo, hi = self.op_size
        return rng.randint(lo, hi)

    def to_json(self):
        return {
            "name": self.name,
            "sessions": self.sessions,
            "rate_per_session": self.rate_per_session,
            "read_fraction": self.read_fraction,
            "arrival": self.arrival,
            "op_size": (
                self.op_size if isinstance(self.op_size, int)
                else list(self.op_size)
            ),
            "keys": self.keys,
        }


def open_loop(rate, op_size=1024):
    """Poisson writes at *rate* ops/s as ``session_classes``: one
    write-only :class:`SessionClass`.  Every such run names it
    ``open-loop``, which labels its PRNG stream (``aggload:open-loop``),
    so one seed gives one arrival schedule whichever caller asks."""
    return [SessionClass("open-loop", sessions=1, rate_per_session=rate,
                         op_size=op_size)]


class _ClassState:
    """Per-class live counters and sketch inside the aggregate driver."""

    __slots__ = ("cls", "rng", "latency", "submitted", "committed",
                 "reads", "read_misses", "rejected")

    def __init__(self, cls, rng):
        self.cls = cls
        self.rng = rng
        self.latency = StreamingHistogram()
        self.submitted = 0
        self.committed = 0
        self.reads = 0
        self.read_misses = 0
        self.rejected = 0


class AggregateOpenLoopDriver:
    """Open-loop load from session *populations*, one stream per class.

    Each :class:`SessionClass` draws its arrivals, op sizes, and
    read/write coin flips from its own named PRNG stream
    (``aggload:<class>``), so adding a class never perturbs another
    class's schedule and the whole offered load is a deterministic
    function of the cluster seed.  Writes ride the normal
    ``propose_op`` path and record commit latency per class; reads are
    answered immediately from a live replica's state machine, modelling
    the read path this system actually has (reads never enter the
    broadcast pipeline).

    The driver exposes the surface the bench runner reads from
    :class:`ClosedLoopDriver` — ``latency`` / ``timeline`` /
    ``started_at`` / ``submitted`` / ``committed`` — plus per-class
    breakdowns in ``results()``.
    """

    def __init__(self, cluster, classes, warmup=0.0):
        if not classes:
            raise ValueError("need at least one SessionClass")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError("session class names must be unique")
        self.cluster = cluster
        self.latency = StreamingHistogram()
        self.started_at = cluster.sim.now
        self._warmup_until = self.started_at + warmup
        self.timeline = Timeline()
        self.stopped = False
        self.classes = [
            _ClassState(
                cls, cluster.sim.random.stream("aggload:%s" % cls.name)
            )
            for cls in classes
        ]

    @property
    def sessions(self):
        """Total simulated client sessions across every class."""
        return sum(state.cls.sessions for state in self.classes)

    @property
    def submitted(self):
        return sum(
            state.submitted + state.reads + state.read_misses
            for state in self.classes
        )

    @property
    def committed(self):
        return sum(state.committed for state in self.classes)

    @property
    def rejected(self):
        return sum(state.rejected for state in self.classes)

    def start(self):
        for state in self.classes:
            self._schedule_next(state)
        return self

    def stop(self):
        self.stopped = True

    def _schedule_next(self, state):
        if self.stopped:
            return
        delay = state.cls.sample_interarrival(state.rng)
        self.cluster.sim.schedule(delay, lambda: self._arrival(state))

    def _arrival(self, state):
        if self.stopped:
            return
        cls, rng = state.cls, state.rng
        key = "key-%d" % rng.randrange(cls.keys)
        if cls.read_fraction and rng.random() < cls.read_fraction:
            self._read(state, key)
        else:
            self._write(state, key)
        self._schedule_next(state)

    def _read(self, state, key):
        """Serve a read at a deterministic live replica, locally."""
        live = [
            peer for _pid, peer in sorted(self.cluster.peers.items())
            if not peer.crashed
        ]
        if not live:
            state.read_misses += 1
            return
        peer = live[state.rng.randrange(len(live))]
        try:
            peer.sm.read(("get", key))
        except Exception:
            state.read_misses += 1
            return
        state.reads += 1

    def _write(self, state, key):
        leader = self.cluster.leader()
        if leader is None:
            state.rejected += 1
            return
        size = state.cls.sample_size(state.rng)
        submit_time = self.cluster.sim.now

        def on_commit(result, zxid, t0=submit_time):
            now = self.cluster.sim.now
            state.committed += 1
            if now >= self._warmup_until:
                state.latency.observe(now - t0)
                self.latency.observe(now - t0)
            self.timeline.add(now)

        try:
            leader.propose_op(
                ("put", key, "v" * size), callback=on_commit, size=size,
            )
        except NotLeaderError:
            state.rejected += 1
            return
        state.submitted += 1

    def results(self):
        """Aggregate summary plus per-class breakdowns."""
        return {
            "sessions": self.sessions,
            "submitted": self.submitted,
            "committed": self.committed,
            "latency": self.latency.snapshot(),
            "classes": {
                state.cls.name: {
                    "sessions": state.cls.sessions,
                    "offered_rate": state.cls.aggregate_rate,
                    "submitted": state.submitted,
                    "committed": state.committed,
                    "reads": state.reads,
                    "read_misses": state.read_misses,
                    "rejected": state.rejected,
                    "latency": state.latency.snapshot(),
                }
                for state in self.classes
            },
        }

    def class_metrics(self, duration):
        """Flat dot-keyed per-class metrics for ``BENCH_*.json`` reports."""
        metrics = {"workload.sessions": self.sessions}
        for state in self.classes:
            prefix = "workload.class.%s" % state.cls.name
            metrics["%s.sessions" % prefix] = state.cls.sessions
            metrics["%s.committed" % prefix] = state.committed
            metrics["%s.reads" % prefix] = state.reads
            if duration > 0:
                metrics["%s.write_ops" % prefix] = (
                    state.latency.count / duration
                )
                metrics["%s.read_ops" % prefix] = state.reads / duration
            summary = state.latency.snapshot()
            for key in ("mean", "p50", "p95", "p99"):
                if key in summary:
                    metrics["%s.latency.%s_ms" % (prefix, key)] = (
                        summary[key] * 1e3
                    )
        return metrics
