"""The one table of layer boundaries the traced pass wraps.

This is the only file of the benchmark that names modules below the
public ``repro`` surface.  Every entry is resolved by name at install
time; an entry whose module, class or attribute no longer exists is
skipped, its span name lands in ``SpanTracer.missing``, the metrics
derived from it read ``null`` and ``trace.missing_boundaries`` counts
it.  A refactor of the program therefore degrades the per-layer report
and never crashes the benchmark; end-to-end metrics do not depend on
this file at all.

Layers are this repository's packages: ``sim`` (kernel), ``net``
(fabric), ``zab.leader`` / ``zab.follower`` / ``zab.observer`` (normal
case), ``zab.election`` / ``zab.sync`` (recovery: FLE, discovery,
DIFF/TRUNC/SNAP, log replay), ``zab.peer`` (lifecycle and message
dispatch shared by all roles), ``storage``, ``app``, ``checker``,
``obs``, ``mc`` (explorer), ``harness`` (``Cluster`` glue) and
``harness.loadgen`` (the benchmark's own generator).
"""

import collections

from spans import INHERIT, Boundary

LAYERS = (
    "sim", "net", "zab.leader", "zab.follower", "zab.observer",
    "zab.election", "zab.sync", "zab.peer", "storage", "app", "checker",
    "obs", "mc", "harness", "harness.loadgen",
)

#: Discovery / synchronisation messages: charged to ``zab.sync`` whichever
#: role context handles them.
_SYNC_MESSAGES = frozenset([
    "FollowerInfo", "NewEpoch", "AckEpoch", "HistoryRequest",
    "HistoryResponse", "SyncStart", "SyncTxn", "NewLeader",
    "AckNewLeader", "UpToDate",
])


def _by_message(role_layer):
    def layer(args):
        # args = (context, src, msg)
        if type(args[2]).__name__ in _SYNC_MESSAGES:
            return "zab.sync"
        return role_layer
    return layer


#: Timers belong to whoever owns the callback, not to the span that
#: happened to arm them (a leader arms its ping timer while handling the
#: last sync acknowledgement).
_TIMER_OWNERS = {
    "LeaderContext": "zab.leader", "Batcher": "zab.leader",
    "FollowerContext": "zab.follower", "ObserverContext": "zab.observer",
    "ZabPeer": "zab.peer",
}


def _timer_layer(fn):
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return _TIMER_OWNERS.get(type(owner).__name__)
    if getattr(fn, "__module__", None) == "repro.zab.election":
        return "zab.election"
    return None


# ----------------------------------------------------------------------
# Probes: exact counts taken at the boundary where the work happens
# ----------------------------------------------------------------------

def _pre_sim_run(tracer, args, kwargs):
    sim = args[0]
    tracer.sim = sim
    return sim.events_fired


def _post_sim_run(tracer, fired_before, args, result):
    tracer.count("sim.events", args[0].events_fired - fired_before)


def _pre_cancel(tracer, args, kwargs):
    return not args[0].cancelled


def _post_cancel(tracer, was_live, args, result):
    if was_live:
        tracer.count("sim.cancelled")


def _post_send(tracer, token, args, envelope):
    size = envelope.size
    tracer.count("net.msgs")
    tracer.count("net.bytes", size)
    layer = tracer.current_layer()
    if layer == "zab.leader":
        tracer.count("net.leader_bytes", size)


def _post_broadcast(tracer, token, args, result):
    from repro.net import payload_size

    fanout = len(args[2])
    size = payload_size(args[3]) * fanout
    tracer.count("net.msgs", fanout)
    tracer.count("net.bytes", size)
    if tracer.current_layer() == "zab.leader":
        tracer.count("net.leader_bytes", size)


def _pre_propose_op(tracer, args, kwargs):
    peer = args[0]
    queue = tracer.queues.get(peer.peer_id)
    if queue is None:
        queue = tracer.queues[peer.peer_id] = collections.deque()
    queue.append(peer.sim.now)


def _pre_record_broadcast(tracer, args, kwargs):
    # The leader proposes in submission order, so the n-th broadcast of
    # a primary answers its n-th propose_op.
    queue = tracer.queues.get(args[1])
    if queue and tracer.sim is not None:
        tracer.samples.setdefault("zab.leader.queue_wait", []).append(
            tracer.sim.now - queue.popleft()
        )


def _pre_forget_queue(tracer, args, kwargs):
    # A peer that crashes or abandons its role drops what it had queued.
    tracer.queues.pop(getattr(args[0], "peer_id", None), None)


def _pre_leader_message(tracer, args, kwargs):
    if type(args[2]).__name__ == "Ack":
        tracer.count("zab.leader.acks")


def _post_sync_plan(tracer, token, args, plan):
    tracer.count("zab.sync.%s" % plan.mode)
    tracer.count("zab.sync.bytes", plan.payload_bytes())


def _post_cluster_init(tracer, token, args, result):
    tracer.sim = args[0].sim
    tracer.count("harness.clusters")
    limit = tracer.record_clusters
    if limit is not None and tracer.counters["harness.clusters"] > limit:
        tracer.stop_recording()


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_b = Boundary


BOUNDARIES = (
    # -- sim: kernel ----------------------------------------------------
    _b("repro.sim.kernel", "Simulator", "run", "sim.run", "sim",
       pre=_pre_sim_run, post=_post_sim_run),
    _b("repro.sim.kernel", "Simulator", "schedule", "sim.schedule", "sim"),
    _b("repro.sim.kernel", "Simulator", "schedule_at", "sim.schedule_at",
       "sim"),
    _b("repro.sim.events", "Event", "cancel", "sim.cancel", "sim",
       pre=_pre_cancel, post=_post_cancel),
    _b("repro.sim.process", "Process", "set_timer", "sim.set_timer", "sim",
       callback=("fn", 2, "zab.timer", _timer_layer)),
    # -- net: fabric ----------------------------------------------------
    _b("repro.net.network", "Network", "send", "net.send", "net",
       post=_post_send),
    _b("repro.net.network", "Network", "broadcast", "net.broadcast", "net",
       post=_post_broadcast),
    _b("repro.net.network", "Network", "register", "net.register", "net",
       callback=("handler", 2, "zab.peer.on_message", "zab.peer")),
    _b("repro.net.stats", "NetworkStats", "record_drop", "net.drop", "net"),
    # -- zab: roles -----------------------------------------------------
    _b("repro.zab.peer", "ZabPeer", "propose_op", "zab.leader.propose_op",
       "zab.leader", pre=_pre_propose_op,
       callback=("callback", 2, "harness.loadgen.on_commit", None)),
    _b("repro.zab.peer", "ZabPeer", "sync_read", "zab.follower.sync_read",
       "zab.follower",
       callback=("callback", 2, "harness.loadgen.on_sync_read", None)),
    _b("repro.zab.peer", "ZabPeer", "commit_local", "zab.commit_local",
       INHERIT, default_layer="zab.follower"),
    _b("repro.zab.leader", "LeaderContext", "on_message",
       "zab.leader.on_message", _by_message("zab.leader"),
       pre=_pre_leader_message),
    _b("repro.zab.follower", "FollowerContext", "on_message",
       "zab.follower.on_message", _by_message("zab.follower")),
    _b("repro.zab.observer", "ObserverContext", "on_message",
       "zab.observer.on_message", _by_message("zab.observer")),
    _b("repro.zab.pipeline", "Batcher", "flush", "zab.leader.batch",
       "zab.leader"),
    # -- zab: lifecycle and recovery --------------------------------------
    _b("repro.zab.peer", "ZabPeer", "start", "zab.peer.start", "zab.peer"),
    _b("repro.sim.process", "Process", "crash", "zab.peer.crash",
       "zab.peer", pre=_pre_forget_queue),
    _b("repro.sim.process", "Process", "recover", "zab.peer.recover",
       "zab.peer"),
    _b("repro.zab.peer", "ZabPeer", "go_looking",
       "zab.election.go_looking", "zab.election", pre=_pre_forget_queue),
    _b("repro.zab.peer", "ZabPeer", "on_election_decided",
       "zab.election.decided", "zab.election"),
    _b("repro.zab.election", "FastLeaderElection", "start",
       "zab.election.start", "zab.election"),
    _b("repro.zab.election", "FastLeaderElection", "on_notification",
       "zab.election.on_notification", "zab.election"),
    _b("repro.zab.leader", None, "make_sync_plan", "zab.sync.plan",
       "zab.sync", post=_post_sync_plan),
    _b("repro.zab.peer", "ZabPeer", "rebuild_state",
       "zab.sync.rebuild_state", "zab.sync"),
    _b("repro.zab.peer", "ZabPeer", "build_snapshot",
       "zab.sync.build_snapshot", "zab.sync"),
    # -- storage ----------------------------------------------------------
    _b("repro.storage.txnlog", "TxnLog", "append", "storage.append",
       "storage", callback=("callback", 4, "zab.on_durable", None)),
    _b("repro.storage.txnlog", "TxnLog", "truncate", "storage.truncate",
       "storage"),
    _b("repro.storage.txnlog", "TxnLog", "purge_through", "storage.purge",
       "storage"),
    _b("repro.storage.disk", "DiskModel", "write", "storage.fsync",
       "storage", callback=("callback", 2, "storage.flush", "storage")),
    _b("repro.storage.snapshot", "SnapshotStore", "save",
       "storage.snapshot.save", "storage"),
    # -- app ----------------------------------------------------------------
    _b("repro.app.kvstore", "KVStateMachine", "prepare", "app.prepare",
       "app"),
    _b("repro.app.kvstore", "KVStateMachine", "apply", "app.apply", "app"),
    _b("repro.app.kvstore", "KVStateMachine", "read", "app.read", "app"),
    _b("repro.app.kvstore", "KVStateMachine", "serialize", "app.serialize",
       "app"),
    _b("repro.app.kvstore", "KVStateMachine", "restore", "app.restore",
       "app"),
    # -- checker ------------------------------------------------------------
    _b("repro.checker.trace", "Trace", "record_broadcast",
       "checker.record_broadcast", "checker", pre=_pre_record_broadcast),
    _b("repro.checker.trace", "Trace", "record_delivery",
       "checker.record_delivery", "checker"),
    _b("repro.checker.incremental", "CheckerState", "attach",
       "checker.attach", "checker"),
    _b("repro.checker.incremental", "CheckerState", "report",
       "checker.report", "checker"),
    _b("repro.harness.cluster", None, "check_all", "checker.check_all",
       "checker"),
    # -- obs ------------------------------------------------------------------
    _b("repro.obs.recorder", "FlightRecorder", "emit", "obs.emit", "obs"),
    _b("repro.obs.trace", "Tracer", "emit", "obs.tracer_emit", "obs"),
    # -- harness: Cluster glue ---------------------------------------------
    _b("repro.harness.cluster", "Cluster", "__init__", "harness.cluster_init",
       "harness", post=_post_cluster_init),
    _b("repro.harness.cluster", "Cluster", "start", "harness.cluster_start",
       "harness"),
    _b("repro.harness.cluster", "Cluster", "run_until_stable",
       "harness.run_until_stable", "harness"),
    _b("repro.harness.cluster", "Cluster", "run_until", "harness.run_until",
       "harness"),
    _b("repro.harness.cluster", "Cluster", "run", "harness.run", "harness"),
    _b("repro.harness.cluster", "Cluster", "leader", "harness.leader",
       "harness"),
    _b("repro.harness.cluster", "Cluster", "crash", "harness.crash",
       "harness"),
    _b("repro.harness.cluster", "Cluster", "recover", "harness.recover",
       "harness"),
    _b("repro.mc.explorer", None, "apply_action", "harness.apply_action",
       "harness"),
    # -- mc: explorer -------------------------------------------------------
    _b("repro.mc.explorer", "Explorer", "run", "mc.explore", "mc"),
    _b("repro.mc.explorer", None, "cluster_fingerprint", "mc.fingerprint",
       "mc"),
    _b("repro.mc.explorer", None, "replay_schedule", "mc.replay", "mc"),
    # -- the benchmark's own generator --------------------------------------
    _b("loadgen", "ClosedLoop", "_submit", "harness.loadgen.submit",
       "harness.loadgen"),
    _b("loadgen", "OpenLoop", "_fire", "harness.loadgen.fire",
       "harness.loadgen"),
    _b("loadgen", "Ticker", "_tick", "harness.loadgen.tick",
       "harness.loadgen"),
)
