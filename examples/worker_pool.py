#!/usr/bin/env python
"""A coordinated worker pool: membership + barrier + lock, composed.

The full ZooKeeper idiom in one scene: workers register in a group
(ephemeral membership), rendezvous at a double barrier before starting,
and take turns on a shared resource guarded by a distributed lock.  One
worker "crashes" mid-run; closing its session removes it from the group
and releases anything it held — no operator intervention.  The three
recipes live next to this file, in ``recipes.py``.

Run with::

    python examples/worker_pool.py
"""

from recipes import DistributedLock, DoubleBarrier, GroupMembership

from repro.app import DataTreeStateMachine
from repro.client import Client
from repro.harness import Cluster, ClusterConfig

WORKERS = 3


def main():
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=31, app_factory=DataTreeStateMachine,
    )).start()
    cluster.run_until_stable(timeout=30)
    for root in ("/group", "/barrier", "/lock"):
        cluster.submit_and_wait(("create", root, b"", "", None))
    print("coordination trees ready; leader is peer %d"
          % cluster.leader().peer_id)

    # An observer watches the roster.
    watcher = GroupMembership(
        Client(cluster.sim, cluster.network, "watcher",
               peers=list(cluster.config.all_peers)),
        root="/group",
    )
    rosters = []
    watcher.watch(lambda members: rosters.append(members))

    # Workers join, meet at the barrier, then contend for the lock.
    clients, locks, barriers = [], [], []
    started = []
    work_log = []
    for index in range(WORKERS):
        session = "worker-%d" % index
        cluster.submit_and_wait(("create_session", session, 30.0))
        client = Client(cluster.sim, cluster.network, "w%d" % index,
                        peers=list(cluster.config.all_peers))
        clients.append(client)
        GroupMembership(client, root="/group").join(session, session)
        barrier = DoubleBarrier(client, session, "/barrier",
                                threshold=WORKERS, name=session)
        barriers.append(barrier)
        lock = DistributedLock(client, session, root="/lock")
        locks.append(lock)

        def begin(index=index, lock=lock):
            started.append(index)
            lock.acquire(lambda l, index=index: work_log.append(index))

        barrier.enter(begin)

    cluster.run_until(lambda: len(started) == WORKERS, timeout=30)
    print("all %d workers passed the start barrier" % WORKERS)
    cluster.run_until(lambda: work_log, timeout=30)
    print("worker %d holds the lock; roster: %s"
          % (work_log[0], rosters[-1]))

    # The lock holder crashes; its session is closed.
    victim = work_log[0]
    print("\nworker %d crashes mid-critical-section ..." % victim)
    cluster.submit_and_wait(("close_session", "worker-%d" % victim))
    cluster.run_until(lambda: len(work_log) >= 2, timeout=30)
    print("lock auto-passed to worker %d" % work_log[1])
    cluster.run_until(
        lambda: rosters and len(rosters[-1]) == WORKERS - 1, timeout=30
    )
    print("roster shrank to: %s" % rosters[-1])

    # Remaining workers finish in turn.
    locks[work_log[1]].release()
    cluster.run_until(lambda: len(work_log) >= 3, timeout=30)
    print("then worker %d; full service order: %s"
          % (work_log[2], work_log))
    assert sorted(work_log) == sorted(range(WORKERS))

    report = cluster.check_properties()
    print("\nbroadcast properties:", report)
    assert report.ok


if __name__ == "__main__":
    main()
