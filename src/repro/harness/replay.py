"""Bit-for-bit replay of an :class:`~repro.harness.schedule.ActionSchedule`.

``replay_schedule`` boots a fresh :class:`~repro.harness.cluster.Cluster`,
waits for stability, drives a steady client load, fires each scheduled
action at its virtual time, then quiesces (heal + recover everyone, run
until every live peer delivers the same post-recovery frontier) and
checks the six PO broadcast properties plus replica convergence.  The
whole run lives in simulated time, so the same ``(schedule, seed)`` pair
always yields the same :class:`ReplayResult` — including the exact
violation signature when the run is bad, which is what makes delta
debugging (:mod:`repro.harness.shrink`) sound.  With ``health=True``
the result also carries the health monitor's verdict and a
committed-transaction-loss audit.
"""

from repro.common.errors import ConfigError
from repro.harness.cluster import Cluster
from repro.harness.config import ClusterConfig
from repro.harness.schedule import apply_action
from repro.obs.health import HealthMonitor
from repro.obs.metrics import StreamingHistogram
from repro.obs.trace import Tracer


def violation_signature(report, converged=True):
    """A hashable, replay-stable fingerprint of what went wrong.

    Sorted unique ``(property, zxid)`` pairs — the zxid taken from the
    first offending event of each violation — plus a ``("diverged",
    None)`` marker when replica states did not converge.  Two replays of
    the same schedule on the same seed must produce identical
    signatures; the shrinker and the corpus tests both rely on that.
    """
    entries = set()
    for violation in report.violations:
        zxid = None
        for event in violation.events:
            if getattr(event, "zxid", None) is not None:
                zxid = event.zxid.as_tuple()
                break
        entries.add((violation.prop, zxid))
    if not converged:
        entries.add(("diverged", None))
    return tuple(sorted(entries))


def signature_json(signature):
    """JSON-safe form of a :func:`violation_signature`."""
    return [
        [prop, None if zxid is None else list(zxid)]
        for prop, zxid in signature
    ]


class ReplayResult:
    """Outcome of replaying one schedule.

    ``latency`` is the client load's submit-to-commit
    :class:`~repro.obs.metrics.StreamingHistogram`.  ``health`` (the
    finished :class:`~repro.obs.health.HealthMonitor`) and ``lost``
    (:func:`committed_txn_loss`) are filled by ``replay_schedule(...,
    health=True)``; campaigns stamp ``elapsed`` (wall-clock seconds)
    and ``worker`` (which pool worker ran it, 0 when serial).
    """

    __slots__ = ("schedule", "ok", "converged", "violations", "signature",
                 "report", "error", "cluster", "deliveries", "epochs",
                 "fired", "latency", "health", "lost", "elapsed", "worker")

    def __init__(self, schedule, ok, converged, violations, signature,
                 report=None, error=None, cluster=None, deliveries=0,
                 epochs=(), fired=(), latency=None):
        self.schedule = schedule
        self.ok = ok
        self.converged = converged
        self.violations = violations
        self.signature = signature
        self.report = report
        self.error = error
        self.cluster = cluster
        self.deliveries = deliveries
        self.epochs = epochs
        self.fired = fired
        self.latency = latency
        self.health = None
        self.lost = []
        self.elapsed = None
        self.worker = None

    @property
    def seed(self):
        """The seed the schedule's ``meta`` replays at (``None`` when
        it does not say, i.e. the config's)."""
        return self.schedule.meta.get("seed")

    @property
    def passed(self):
        """Checker + convergence + no error + zero committed-txn loss."""
        return (
            self.ok and self.converged and self.error is None
            and not self.lost
        )

    def __repr__(self):
        if self.passed:
            return "<ReplayResult OK %d deliveries>" % self.deliveries
        return "<ReplayResult FAIL %s>" % (
            self.error or list(self.signature),
        )


#: The write the steady client load submits every ``op_interval``.
LOAD_OP = ("incr", "campaign", 1)


def stabilise_under_load(cluster, timeout, op_interval,
                         latency_histogram=None):
    """Run a started *cluster* to stability, then start its client load.

    The first half of every replayed or explored execution.  Raises
    :class:`TimeoutError` when no leader establishes; otherwise starts
    the one-write-per-*op_interval* tick (``0`` disables it) and
    returns ``t0``, the timestamp schedule times count from.  A
    *latency_histogram* observes submit-to-commit latency per op; it
    schedules nothing and draws no randomness, so traces and violation
    signatures stay bit-identical to a histogram-free run.
    """
    cluster.run_until_stable(timeout=timeout)
    t0 = cluster.sim.now
    if op_interval:
        _load_tick(cluster, op_interval, latency_histogram)
    return t0


def _load_tick(cluster, op_interval, latency_histogram):
    """One write of the steady client load, then the next tick.  A
    module function, not a closure, so a loaded cluster pickles."""
    leader = cluster.leader()
    if leader is not None:
        try:
            if latency_histogram is None:
                leader.propose_op(LOAD_OP)
            else:
                def _observe(_result, _zxid, _t0=cluster.sim.now):
                    latency_histogram.observe(cluster.sim.now - _t0)

                leader.propose_op(LOAD_OP, callback=_observe)
        except Exception:
            pass
    cluster.sim.schedule(
        op_interval, _load_tick, cluster, op_interval, latency_histogram
    )


def _quiescent(cluster, floor):
    """Stable, the leader delivered past *floor* (its frontier when it
    re-stabilised), and every live peer is at the leader's frontier."""
    if not cluster.is_stable():
        return False
    frontier = cluster.leader().last_committed
    if frontier is None or (floor is not None and frontier <= floor):
        return False
    return all(
        peer.last_committed == frontier
        for peer in cluster.peers.values() if not peer.crashed
    )


def quiesce_and_judge(cluster, settle, timeout, check=None):
    """Undo every standing fault, re-stabilise, quiesce, then judge.

    The second half.  Link cuts and clock skews restore trace-silently
    when absent, so schedules predating those faults replay
    byte-identically.  Raises :class:`TimeoutError` if stability never
    returns.  The load then runs until every live peer has delivered
    one frontier past the leader's at re-stabilisation, or for *settle*
    sim-seconds, the cap; either way the run is judged.  *check*
    produces the property report (default: the post-hoc
    ``cluster.check_properties``).  Returns ``(report, converged,
    signature)``.
    """
    cluster.heal()
    cluster.restore_links()
    cluster.clear_clock_skews()
    for peer_id, peer in cluster.peers.items():
        if peer.crashed:
            cluster.recover(peer_id)
    floor = cluster.run_until_stable(timeout=timeout).last_committed
    cluster.run_until(lambda: _quiescent(cluster, floor), timeout=settle)
    report = (check or cluster.check_properties)()
    states = {
        tuple(sorted(state.items()))
        for state in cluster.states().values()
    }
    converged = len(states) == 1
    return report, converged, violation_signature(report, converged)


def committed_txn_loss(cluster):
    """Committed transactions beyond some live peer's final frontier.

    The explicit zero-loss audit behind the rolling-restart guarantee:
    after quiesce every live peer's delivery frontier (its
    ``last_committed`` zxid, which Zab peers and Paxos replicas both
    expose) must have reached the newest committed (delivered-anywhere)
    zxid.  Convergence says the live peers agree byte-for-byte; this
    says what they agree on is the *complete* committed history, not a
    mutually-agreed rollback.  A peer's cumulative history may
    legitimately start at a snapshot base (SNAP sync replays nothing
    below it), so the audit compares frontiers, not per-txn delivery
    records.  Returns ``[(peer_id, zxid_tuple), ...]`` of committed
    zxids a live peer never reached; crashed peers are excused.
    """
    trace = cluster.trace
    if trace is None or not trace.delivery_txns:
        return []
    committed = sorted(set(zip(trace.delivery_column("zxid_epoch"),
                               trace.delivery_column("zxid_counter"))))
    frontier = committed[-1]
    lost = []
    for peer_id, peer in sorted(cluster.peers.items()):
        if peer.crashed:
            continue
        last = (
            peer.last_committed.as_tuple()
            if peer.last_committed is not None else (0, 0)
        )
        if last < frontier:
            lost.extend(
                (peer_id, zxid) for zxid in committed if zxid > last
            )
    return lost


def replay_schedule(schedule, config=None, op_interval=None, settle=2.0,
                    timeout=60.0, recorder_dir=None, health=False):
    """Run *schedule* against a fresh cluster; returns a ReplayResult.

    The cluster is built from *config* (default ``ClusterConfig()``:
    leader factory, tracer, metrics, network and disk models, ZabConfig
    overrides) overlaid with the schedule's own ``meta`` — ``n_voters``,
    ``seed``, ``dissemination``, ``protocol`` — and ``op_interval``
    defaults to the meta's too (else 20 ms), so a schedule loaded from a
    repro artifact replays with no extra arguments.  The run is judged
    at quiescence (:func:`quiesce_and_judge`), *settle* being the cap.

    With *recorder_dir* set, any failing replay (checker violation,
    divergence, or a run that never stabilised) dumps the cluster's
    flight recorder to ``<recorder_dir>/flight.jsonl`` before
    returning, so the failure ships its black box even with tracing
    off.  The dump is deterministic: replaying the same schedule on
    the same seed writes byte-identical flight files.

    With *health* the run is traced (wire-level ``net.*`` events off;
    the config's own ``tracer`` is replaced), the trace is judged by a
    :class:`~repro.obs.health.HealthMonitor` into ``result.health``,
    and a run that ended without error is audited for
    committed-transaction loss into ``result.lost``.

    A schedule that names a peer the cluster lacks raises
    :class:`~repro.common.errors.ConfigError` before anything runs.
    """
    meta = schedule.meta
    if op_interval is None:
        op_interval = meta.get("op_interval", 0.02)
    spec = (config or ClusterConfig()).replace(**{
        key: meta[key]
        for key in ("n_voters", "seed", "dissemination", "protocol")
        if key in meta
    })
    members = set(spec.voter_ids() + spec.observer_ids())
    for action in schedule:
        for peer_id in action.peers():
            if peer_id not in members:
                raise ConfigError(
                    "%r names peer %r; the cluster has peers %s"
                    % (action, peer_id, sorted(members))
                )
    if health:
        tracer = Tracer()
        tracer.disable("net.")
        spec = spec.replace(tracer=tracer)
    result = _replay(
        schedule, Cluster(spec).start(), op_interval, settle, timeout,
        recorder_dir,
    )
    if health:
        result.health = HealthMonitor().feed(tracer.events).finish()
        if result.error is None:
            result.lost = committed_txn_loss(result.cluster)
    return result


def _replay(schedule, cluster, op_interval, settle, timeout,
            recorder_dir):
    latency = StreamingHistogram()
    try:
        t0 = stabilise_under_load(cluster, timeout, op_interval, latency)
    except TimeoutError as exc:
        cluster.dump_flight(recorder_dir, reason="never_stable")
        return ReplayResult(
            schedule, False, False, [], (), cluster=cluster,
            error="never stable: %s" % exc, latency=latency,
        )

    fired = []
    for action in schedule:
        target_time = t0 + action.time
        if target_time > cluster.sim.now:
            cluster.run(target_time - cluster.sim.now)
        happened = apply_action(cluster, action)
        if happened is not None:
            fired.append((cluster.sim.now, happened))

    try:
        report, converged, signature = quiesce_and_judge(
            cluster, settle, timeout
        )
    except TimeoutError as exc:
        # The delivered history is still judged, but the signature stays
        # empty: a liveness failure is not a violation to shrink towards.
        cluster.dump_flight(recorder_dir, reason="never_restabilised")
        report = cluster.check_properties()
        return ReplayResult(
            schedule, False, False, sorted(report.violated_properties()),
            (), report=report, cluster=cluster,
            deliveries=report.stats["deliveries"],
            epochs=report.stats["epochs"], fired=fired,
            error="never re-stabilised: %s" % exc, latency=latency,
        )
    if signature:
        cluster.dump_flight(
            recorder_dir, reason="replay_violation",
            signature=signature_json(signature),
        )
    return ReplayResult(
        schedule,
        ok=report.ok,
        converged=converged,
        violations=sorted(report.violated_properties()),
        signature=signature,
        report=report,
        cluster=cluster,
        deliveries=report.stats["deliveries"],
        epochs=report.stats["epochs"],
        fired=fired,
        latency=latency,
    )
