#!/usr/bin/env python
"""A configuration service with watches, clients, and an observer.

Models the second workload the ZooKeeper paper motivates: many readers
watch a config subtree served by followers (and a non-voting observer
for extra read capacity), while occasional writers update it through
the leader.  Watches are replica-local one-shot subscriptions, exactly
as in ZooKeeper.

Run with::

    python examples/config_service.py
"""

from repro.app import DataTreeStateMachine, WatchManager
from repro.client import Client
from repro.harness import Cluster, ClusterConfig


def main():
    cluster = Cluster(ClusterConfig(
        n_voters=3, n_observers=1, seed=11,
        app_factory=DataTreeStateMachine,
    )).start()
    cluster.run_until_stable(timeout=30)
    leader_id = cluster.leader().peer_id
    observer = cluster.peers[4]
    print("ensemble: %s (peer 4 is a non-voting observer)"
          % cluster.describe())

    # Bootstrap the config subtree.
    cluster.submit_and_wait(("create", "/config", b"", "", None))
    cluster.submit_and_wait(
        ("create", "/config/db_url", b"db://primary", "", None)
    )
    cluster.run(0.5)

    # A reader watches the config on the *observer* replica.
    watches = WatchManager(observer.sm)
    seen = []
    watches.watch_data(
        "/config/db_url",
        lambda event, path: seen.append(
            (event, observer.sm.read(("get", path)))
        ),
    )
    print("reader registered a data watch on the observer")

    # A writer client updates the config through any peer.
    writer = Client(
        cluster.sim, cluster.network, "writer",
        peers=list(cluster.config.all_peers),
    )
    done = []
    writer.submit(
        ("set", "/config/db_url", b"db://replica-7", -1),
        callback=lambda ok, result, zxid: done.append((ok, zxid)),
    )
    cluster.run_until(lambda: done, timeout=10)
    cluster.run(0.5)  # let the INFORM reach the observer
    ok, zxid = done[0]
    print("writer committed the update as %r" % (zxid,))
    print("watch fired on the observer: %r" % (seen,))
    assert seen == [("changed", b"db://replica-7")]

    # Reads are served locally: ask the observer directly via a client
    # pinned to it (no leader involvement).
    reader = Client(
        cluster.sim, cluster.network, "reader",
        peers=list(cluster.config.all_peers), prefer=4,
    )
    results = []
    reader.submit(("get", "/config/db_url"),
                  callback=lambda ok, result, zxid: results.append(result))
    cluster.run_until(lambda: results, timeout=10)
    print("reader (pinned to observer) sees: %r" % results[0])
    assert results[0] == b"db://replica-7"

    # Watches are one-shot; re-arm and update again through a follower.
    watches.watch_data(
        "/config/db_url",
        lambda event, path: seen.append(
            (event, observer.sm.read(("get", path)))
        ),
    )
    follower_id = next(
        peer_id for peer_id in cluster.config.voters
        if peer_id != leader_id
    )
    writer2 = Client(
        cluster.sim, cluster.network, "writer2",
        peers=list(cluster.config.all_peers), prefer=follower_id,
    )
    done2 = []
    writer2.submit(
        ("set", "/config/db_url", b"db://replica-9", -1),
        callback=lambda ok, result, zxid: done2.append(ok),
    )
    cluster.run_until(lambda: done2, timeout=10)
    cluster.run(0.5)
    print("second update (written via follower %d, forwarded to the "
          "leader): %r" % (follower_id, seen[-1]))
    assert seen[-1] == ("changed", b"db://replica-9")

    report = cluster.check_properties()
    print("\nbroadcast properties:", report)
    assert report.ok


if __name__ == "__main__":
    main()
