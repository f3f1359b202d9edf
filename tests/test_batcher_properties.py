"""Property-based tests for the leader's broadcast-stream outbox.

Two layers:

- Unit-level (hypothesis): random runs of events, each issuing a random
  sequence of PROPOSEs and COMMITs, optionally ending in ``close()``
  with an event's messages still in the outbox, must preserve the
  outbox contract: every event that issued anything causes exactly one
  dissemination, a lone message goes out bare, two or more as one
  frame, the unframed stream equals the issue order, and nothing is
  sent after close.

- Cluster-level: the edge the outbox must get right.  A leader issues
  proposals outside any event (so their flush is still deferred), and
  then crashes (or is partitioned out and abdicates).  The outboxed
  requests must die with that epoch: they are never delivered
  anywhere, in any epoch, and the PO properties hold across the
  leadership change.
"""

import types

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.harness import Cluster, ClusterConfig
from repro.obs.trace import NULL_TRACER
from repro.sim import Simulator
from repro.zab import messages
from repro.zab.pipeline import Batcher
from repro.zab.zxid import Zxid


_EVENTS = st.lists(
    st.lists(st.sampled_from(["propose", "commit"]), max_size=6),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(events=_EVENTS, close_at_end=st.booleans())
def test_batcher_contract_under_random_interleavings(events, close_at_end):
    sim = Simulator()
    peer = types.SimpleNamespace(sim=sim, tracer=NULL_TRACER, peer_id=1)
    sent = []  # (virtual time, message)
    batcher = Batcher(
        peer, lambda message, committed=(): sent.append((sim.now, message))
    )
    issued = []
    counter = [0]

    def issue(kinds):
        for kind in kinds:
            if kind == "propose":
                counter[0] += 1
                message = messages.Propose(Zxid(1, counter[0]), None, 8)
            else:
                message = messages.Commit(Zxid(1, max(counter[0], 1)))
            issued.append(message)
            batcher.add(message)

    for index, kinds in enumerate(events):
        sim.schedule(0.01 * (index + 1), issue, kinds)
    sim.run()
    if close_at_end:
        # Issued outside run(): the flush is deferred to the next run().
        issue(["propose", "commit"])
        batcher.close()
        sim.run()

    busy = [kinds for kinds in events if kinds]
    assert len(sent) == len(busy)   # one dissemination per event
    unframed = []
    for (_t, message), kinds in zip(sent, busy):
        if len(kinds) == 1:
            assert not isinstance(message, messages.Frame)
            unframed.append(message)
        else:
            assert isinstance(message, messages.Frame)
            assert len(message.members) == len(kinds)
            unframed.extend(message.members)
    expected = issued[:-2] if close_at_end else issued
    assert unframed == expected     # per-learner order is issue order
    assert len(batcher) == 0


def _buffer_doomed_requests(cluster, leader, count=5):
    """Submit *count* writes outside ``run()``: they stay in the outbox."""
    committed = []
    for index in range(count):
        leader.propose_op(
            ("incr", "doomed-%d" % index, 1),
            callback=lambda result, zxid: committed.append(zxid),
        )
    assert len(leader.ctx.batcher) == count, "proposals should be outboxed"
    return committed


def _assert_no_leak(cluster, committed):
    for peer_id, state in cluster.states().items():
        leaked = [key for key in state if key.startswith("doomed")]
        assert not leaked, "peer %d delivered %s" % (peer_id, leaked)
    assert committed == [], "buffered request committed across epochs"
    report = cluster.check_properties()
    assert report.ok, report.violations[:5]


def test_buffered_requests_die_when_leader_crashes_before_flush():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=2)).start()
    leader = cluster.run_until_stable(timeout=60)
    committed = _buffer_doomed_requests(cluster, leader)
    batcher = leader.ctx.batcher
    cluster.crash(leader.peer_id)   # before the deferred flush ran
    assert len(batcher) == 0
    cluster.run_until_stable(timeout=60)
    cluster.recover(leader.peer_id)
    cluster.run_until_stable(timeout=60)
    cluster.run(2.0)
    _assert_no_leak(cluster, committed)


def test_buffered_requests_die_when_leader_loses_leadership():
    # Same edge without a crash: the outbox flushes into a partition
    # that isolates the leader, which then abdicates (loses follower
    # quorum); what it proposed must not leak into the next epoch.
    cluster = Cluster(ClusterConfig(n_voters=3, seed=2)).start()
    leader = cluster.run_until_stable(timeout=60)
    old_epoch = leader.current_epoch()
    committed = _buffer_doomed_requests(cluster, leader)
    cluster.partition([leader.peer_id])
    cluster.run(0.4)  # past the 0.2 s staleness timeout
    assert leader.state != "leading" or not leader.ctx.established
    cluster.heal()
    cluster.run_until_stable(timeout=60)
    cluster.run(2.0)
    assert cluster.leader().current_epoch() > old_epoch
    _assert_no_leak(cluster, committed)
