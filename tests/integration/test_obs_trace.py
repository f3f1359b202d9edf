"""End-to-end tracing: a traced leader crash shows the full anatomy.

Runs the ``repro trace`` scenario (load, follower crash, leader crash,
recovery) with a live tracer and checks that the recorded events tell
the story in causal order: the leader crash, a new election starting
after it, a decision, synchronisation with a chosen strategy, and
commits resuming under the new leader — all stamped with virtual time.
"""

from repro.bench.runner import EVAL_LINK, run_broadcast_bench
from repro.harness import ActionSchedule, ClusterConfig
from repro.obs import MetricsRegistry, Tracer, phase_spans


def _run_traced(rate=300.0, duration=6.0):
    tracer = Tracer()
    tracer.disable("net.")
    registry = MetricsRegistry()
    result = run_broadcast_bench(
        ClusterConfig(n_voters=5, seed=3, net=EVAL_LINK, tracer=tracer,
                      metrics=registry),
        duration=duration, warmup=0, rate=rate,
        schedule=(
            ActionSchedule()
            .add(1.0, "crash_follower")
            .add(2.0, "crash_leader")
            .add(4.0, "recover_all")
        ),
    )
    return result, tracer, registry


def test_traced_leader_crash_events_in_causal_order():
    result, tracer, registry = _run_traced()

    crashes = [
        e for e in tracer.by_kind("fault.crash")
        if e.fields.get("was_leader")
    ]
    assert crashes, "scenario must crash the leader"
    crash = crashes[0]

    # A new election starts after the crash...
    elections = [
        e for e in tracer.by_kind("election.start") if e.t > crash.t
    ]
    assert elections, "no election after leader crash"
    election = elections[0]

    # ...and is decided after it started.
    decisions = [
        e for e in tracer.by_kind("election.decided")
        if e.t >= election.t
    ]
    assert decisions, "election never decided"
    decided = decisions[0]
    new_leader = decided.fields["leader"]
    assert new_leader != crash.node, "crashed leader cannot win"

    # The new leader synchronises followers with a concrete strategy.
    syncs = [
        e for e in tracer.by_kind("leader.sync")
        if e.node == new_leader and e.t >= decided.t
    ]
    assert syncs, "new leader never synced a follower"
    assert all(
        e.fields["mode"] in ("diff", "trunc", "snap") for e in syncs
    )

    # It establishes, and commits resume after establishment.
    establishments = [
        e for e in tracer.by_kind("leader.established")
        if e.node == new_leader and e.t >= decided.t
    ]
    assert establishments, "new leader never established"
    established = establishments[0]
    resumed = [
        e for e in tracer.by_kind("peer.commit")
        if e.node == new_leader and e.t >= established.t
    ]
    assert resumed, "no commits after failover"

    # Full causal chain in virtual time.
    assert (
        crash.t <= election.t <= decided.t
        <= established.t <= resumed[0].t
    )

    # And the run as a whole stayed correct.
    assert result.check_report.ok


def test_traced_crash_phase_spans_cover_failover():
    _result, tracer, registry = _run_traced()
    spans = phase_spans(tracer.events)
    assert len(spans) >= 2, "expected pre- and post-crash epochs"
    epochs = [span["epoch"] for span in spans]
    assert epochs == sorted(epochs)
    last = spans[-1]
    assert last["commits"] > 0
    assert last["election_s"] is not None and last["election_s"] > 0
    assert last["sync_s"] is not None and last["sync_s"] >= 0
    assert sum(last["sync_modes"].values()) > 0

    snapshot = registry.snapshot()
    assert snapshot["zab"]["commits"] > 0
    assert snapshot["zab"]["elections_decided"] >= 2
    assert snapshot["net"]["drops_by_reason"].get("dest-dead", 0) > 0
