"""Abstract-state fingerprints for revisit pruning.

Two executions that reach the same *abstract* cluster state — identical
per-peer protocol state and identical set of in-flight messages — have
identical futures under the deterministic simulator, so the explorer
only needs to expand one of them.  The fingerprint deliberately ignores
wall-clock-ish detail (virtual timestamps, event sequence numbers,
metrics counters): those differ between two routes to the same state
without changing what the protocol can do next.

What goes in, per peer: crashed flag, role state, accepted/current
epoch, delivery position, last-committed zxid, and the durable log's
zxid sequence.  Plus the network's in-flight envelopes (src, dst,
payload type, carried zxid) and whether a partition is installed.
"""

import hashlib


def _zxid_tuple(zxid):
    as_tuple = getattr(zxid, "as_tuple", None)
    return as_tuple() if as_tuple is not None else None


def peer_fingerprint(peer, storage_state=False):
    """The abstract-state tuple of one peer.

    With *storage_state* the tuple widens to cover snapshot/purge
    state — required when the explorer branches over ``snapshot`` /
    ``compact_log`` operator actions, whose only effect is on stable
    storage and would otherwise be invisible to revisit pruning (the
    post-action state would alias the pre-action state and the branch
    would be pruned unexplored).
    """
    storage = peer.storage
    base = (
        peer.peer_id,
        peer.crashed,
        peer.state,
        storage.epochs.accepted_epoch,
        storage.epochs.current_epoch,
        peer.position,
        _zxid_tuple(peer.last_committed),
        tuple(map(tuple, storage.log.durable_zxids())),
    )
    if not storage_state:
        return base
    latest = storage.snapshots.latest()
    return base + (
        len(storage.snapshots),
        _zxid_tuple(latest.last_zxid) if latest is not None else None,
        _zxid_tuple(storage.log.purged_through()),
    )


def inflight_fingerprint(cluster):
    """Sorted abstract view of every undelivered network message."""
    deliver = cluster.network._deliver
    messages = []
    for event in cluster.sim.iter_pending():
        if event.fn != deliver:  # == not `is`: bound methods are per-access
            continue
        envelope = event.args[0]
        messages.append((
            envelope.src,
            envelope.dst,
            type(envelope.payload).__name__,
            _zxid_tuple(getattr(envelope.payload, "zxid", None)),
        ))
    messages.sort()
    return tuple(messages)


def cluster_fingerprint(cluster, storage_state=False):
    """A compact stable hash of the cluster's abstract state.

    Stable across runs and processes (sha256 of a repr, not ``hash()``,
    which is salted per interpreter), so fingerprints can appear in JSON
    summaries and be compared between explorer invocations.
    """
    state = (
        tuple(
            peer_fingerprint(peer, storage_state=storage_state)
            for _, peer in sorted(cluster.peers.items())
        ),
        inflight_fingerprint(cluster),
        cluster.network.partitions.active(),
    )
    digest = hashlib.sha256(repr(state).encode("utf-8")).hexdigest()
    return digest[:16]
