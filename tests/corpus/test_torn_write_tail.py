"""A crash mid-flush tears the log's tail; recovery must drop it.

Under load, 64 writes burst at once, and 0.6 ms later ``torn_write``
crashes a peer while its log flushes the burst.  The leader proposes the
burst in one event and sends it to each follower as one frame, so a
follower's flush holds all 64 records; the leader's own log flushes the
first record alone and the other 63 next.  Either way the flush's last
record, zxid (1, 89), lands torn.  Recovery drops the torn tail
(``TxnLog.drop_torn_tail``), so the peer's log ends at (1, 88) and the
sync with the leader brings (1, 89) back intact.  The check is
load-bearing: with it patched out, the peer replays the torn record and
delivers a txn nobody broadcast.  The same holds whether the victim is
follower 1 or the leader, peer 3.
"""

from unittest import mock

import pytest

from repro import ActionSchedule, ClusterConfig, replay_schedule
from repro.obs.trace import Tracer
from repro.storage.txnlog import TxnLog

CONFIG = ClusterConfig(disk="model")

UNCHECKED_SIGNATURE = (('integrity', (1, 89)), ('total_order', (1, 89)))


def schedule(victim, fault="torn_write"):
    return (
        ActionSchedule(meta={"seed": 0, "n_voters": 3, "op_interval": 0.02})
        .add(0.5, "submit", 64)
        .add(0.5006, fault, victim)
        .add(1.0, "recover", victim)
    )


@pytest.mark.parametrize("victim", [1, 3])
def test_torn_tail_is_dropped_and_resynced(victim):
    tracer = Tracer()
    result = replay_schedule(schedule(victim), CONFIG.replace(tracer=tracer))
    assert result.passed and result.ok and result.converged
    [crash] = tracer.by_kind("fault.crash")
    assert crash.node == victim
    assert crash.fields == {"was_leader": victim == 3,
                            "torn": 63 if victim == 3 else 64}


@pytest.mark.parametrize("victim", [1, 3])
def test_replaying_the_torn_tail_breaks_integrity(victim):
    with mock.patch.object(TxnLog, "drop_torn_tail", lambda log: None):
        result = replay_schedule(schedule(victim), CONFIG)
    assert not result.ok and result.error is None
    assert result.signature == UNCHECKED_SIGNATURE


@pytest.mark.parametrize("protocol", ["zab", "paxos"])
def test_with_nothing_in_flight_torn_write_is_a_plain_crash(protocol):
    # No disk model: appends are durable at once.  Paxos: no log at all.
    tracer = Tracer()
    config = ClusterConfig(protocol=protocol)
    torn = replay_schedule(schedule(1), config.replace(tracer=tracer))
    crash = replay_schedule(schedule(1, "crash"), config)
    assert torn.passed and crash.passed
    assert torn.fired[1][1] == "torn write crashes peer 1"
    assert tracer.by_kind("fault.crash")[0].fields["torn"] == 0
    assert torn.deliveries == crash.deliveries
