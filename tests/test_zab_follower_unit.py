"""Follower-context behaviours that deserve direct pinning."""

from repro.app.statemachine import Txn
from repro.harness import Cluster, ClusterConfig
from repro.zab import messages
from repro.zab.zxid import Zxid


def stable_cluster(seed, **kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=seed, **kwargs)).start()
    cluster.run_until_stable(timeout=30)
    return cluster


def active_follower(cluster):
    return next(
        peer for peer in cluster.peers.values() if peer.is_active_follower
    )


def test_duplicate_propose_is_acked_not_relogged():
    cluster = stable_cluster(220)
    cluster.submit_and_wait(("put", "k", 1))
    cluster.run(0.3)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    log_len = len(follower.storage.log)
    # Replay the last proposal directly at the follower.
    record = follower.storage.log.all_entries()[-1]
    before_acks = cluster.network.stats.by_type.get("Ack", 0)
    follower.ctx.on_message(
        leader_id,
        messages.Propose(record.zxid, record.txn, record.size),
    )
    cluster.run(0.1)
    assert len(follower.storage.log) == log_len          # not re-logged
    after_acks = cluster.network.stats.by_type.get("Ack", 0)
    assert after_acks == before_acks + 1                  # but re-acked


def test_duplicate_propose_mid_flush_waits_for_the_fsync():
    # A re-sent proposal still queued for fsync is not durable yet, so
    # it must not be acknowledged (a cumulative ACK would overclaim the
    # whole prefix); the flush's own ACK covers it once it lands.
    cluster = stable_cluster(224, disk="model", fsync_latency=0.01)
    cluster.submit_and_wait(("put", "k", 1))
    cluster.run(0.3)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    log = follower.storage.log
    record = log.all_entries()[-1]
    zxid = record.zxid.next()
    propose = messages.Propose(zxid, record.txn, record.size)

    def acks_sent():
        return cluster.network.stats.by_type.get("Ack", 0)

    before = acks_sent()
    follower.ctx.on_message(leader_id, propose)    # queued for fsync
    follower.ctx.on_message(leader_id, propose)    # the duplicate
    assert log.last_appended() == zxid
    assert log.last_durable() < zxid
    assert acks_sent() == before
    assert cluster.run_until(lambda: log.last_durable() == zxid, timeout=1)
    assert acks_sent() == before + 1


def test_messages_from_non_leader_are_ignored():
    cluster = stable_cluster(221)
    follower = active_follower(cluster)
    other_follower = next(
        peer for peer in cluster.peers.values()
        if peer.is_active_follower and peer is not follower
    )
    state_before = follower.last_committed
    # A bogus commit "from" another follower must do nothing.
    follower.ctx.on_message(
        other_follower.peer_id, messages.Commit(Zxid(99, 99))
    )
    assert follower.last_committed == state_before
    assert follower.ctx.commit_frontier < Zxid(99, 99)


def test_propose_with_wrong_epoch_is_ignored():
    cluster = stable_cluster(222)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    log_len = len(follower.storage.log)
    follower.ctx.on_message(
        leader_id,
        messages.Propose(Zxid(99, 1), None, 64),
    )
    cluster.run(0.1)
    assert len(follower.storage.log) == log_len


def test_commit_arriving_before_durable_is_deferred():
    # With a slow disk, the COMMIT for a proposal can overtake the local
    # fsync; delivery must wait for durability.
    cluster = stable_cluster(223, disk="model", fsync_latency=0.01)
    done = []
    cluster.submit(("put", "k", 1), callback=lambda r, z: done.append(r))
    cluster.run_until(lambda: done, timeout=10)
    cluster.run(1.0)
    for peer in cluster.peers.values():
        if peer.sm is not None:
            assert peer.sm.read(("get", "k")) == 1
    cluster.assert_properties()


def test_ping_advances_commit_frontier():
    cluster = stable_cluster(224)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    cluster.submit_and_wait(("put", "k", 1))
    # Even if the explicit Commit had been lost, a later Ping carrying
    # the frontier triggers delivery.
    frontier_before = follower.ctx.commit_frontier
    follower.ctx.on_message(
        leader_id,
        messages.Ping(cluster.leader().last_committed),
    )
    assert follower.ctx.commit_frontier >= frontier_before
    assert follower.sm.read(("get", "k")) == 1


def test_follower_answers_history_request():
    cluster = stable_cluster(225)
    cluster.submit_and_wait(("put", "k", 1))
    cluster.run(0.3)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    sent_before = cluster.network.stats.by_type.get("HistoryResponse", 0)
    follower.ctx.on_message(leader_id, messages.HistoryRequest())
    sent_after = cluster.network.stats.by_type.get("HistoryResponse", 0)
    assert sent_after == sent_before + 1


def test_delivery_reads_the_log_only_when_something_is_deliverable():
    # _deliver_committed runs on every durable callback, COMMIT and PING;
    # it may touch the log only when the commit frontier is ahead of what
    # was delivered, and out-of-order arrival still delivers in order.
    cluster = stable_cluster(226, disk="model", fsync_latency=0.01)
    cluster.submit_and_wait(("put", "k", 0))
    cluster.run(0.3)
    follower = active_follower(cluster)
    leader_id = cluster.leader().peer_id
    log = follower.storage.log
    reads, delivered = [], []
    read_log, commit_local = log.entries_after, follower.commit_local
    log.entries_after = lambda zxid: reads.append(zxid) or read_log(zxid)
    follower.commit_local = (
        lambda zxid, txn: delivered.append(zxid) or commit_local(zxid, txn))

    last = log.last_appended()
    first, second = last.next(), last.next().next()
    for value, zxid in enumerate((first, second), start=1):
        txn = Txn("t-%d" % value, "r-%d" % value, None, leader_id,
                  ("set", "k", value), 64)
        follower.ctx.on_message(leader_id, messages.Propose(zxid, txn, 64))

    # COMMIT overtakes the local fsync: one look, nothing durable yet.
    follower.ctx.on_message(leader_id, messages.Commit(first))
    assert len(reads) <= 1 and delivered == []

    # Both fsyncs land: the first durable callback delivers *first*, the
    # second has nothing newly committed and must not read the log.
    reads.clear()
    cluster.run(0.04)
    assert log.last_durable() == second
    assert delivered == [first] and len(reads) == 1

    reads.clear()
    follower.ctx.on_message(leader_id, messages.Commit(second))
    assert delivered == [first, second] and len(reads) == 1
    assert follower.sm.read(("get", "k")) == 2

    # A repeated COMMIT and a PING at the frontier move nothing.
    reads.clear()
    follower.ctx.on_message(leader_id, messages.Commit(second))
    follower.ctx.on_message(leader_id, messages.Ping(second))
    assert reads == [] and delivered == [first, second]
