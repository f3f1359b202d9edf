"""Pluggable broadcast dissemination topologies.

The paper's evaluation shows saturated broadcast throughput falling as
``B / (n - 1)``: the leader streams every PROPOSAL (and COMMIT) to every
follower directly, so its egress NIC is the bottleneck.  Ring Paxos and
chain replication attack exactly this by making *followers* relay the
stream onward, trading leader egress bandwidth for per-hop latency.

A :class:`DisseminationStrategy` answers two questions for the
broadcast phase:

- who does the **leader** send a PROPOSAL/COMMIT to (the roots of the
  plan);
- who **relays** it onward (the children below each root — carried as a
  source route inside :class:`~repro.zab.messages.Relay` so in-flight
  messages never depend on the leader's *current* plan).

ACKs always flow straight back to the leader, and observers are never
plan members: their INFORM stream is leader-direct under every topology.

Four implementations ship:

``leader-direct``
    The paper's behaviour and the default: the leader fans out to every
    follower itself.  The leader runs it as the empty relay plan.
``chain``
    Chain-replication style: one path through the followers in
    ascending id order; leader egress is one proposal per transaction
    regardless of ensemble size.
``tree``
    Balanced fan-out tree (binary by default): leader egress is
    proportional to the fan-out, depth is logarithmic.
``ring``
    Ring dissemination (Ring Paxos): the chain starts at the leader's
    successor in id order and wraps around, so the relay order is a
    rotation of the ring rather than a fixed sorted chain.

Only the *propagation* topology changes.  Agreement is untouched: ACKs
still flow straight back to the leader, quorum and commit order are
computed exactly as before, and the PO broadcast properties are checked
unchanged (the topology-equivalence suite pins this).
"""

from repro.common.errors import ConfigError

#: The four built-in topology names, in documentation order.
DISSEMINATION_TOPOLOGIES = ("leader-direct", "chain", "tree", "ring")


class DisseminationStrategy:
    """How broadcast-phase traffic propagates from the leader.

    Subclasses override :meth:`plan`.  ``name`` is the registry key;
    ``direct`` marks a strategy whose plan never relays: the leader runs
    it as the empty plan (no per-message plan computation, no Relay
    wrapping) and its followers skip the relay-lag check.
    """

    name = None
    direct = False

    def plan(self, leader_id, members):
        """The relay forest for *members* (sorted follower ids).

        Returns a tuple of ``(node, children)`` pairs — the leader's
        immediate targets — where ``children`` is recursively the same
        shape (the source route that node forwards onward).  The forest
        must span *members* exactly once; *leader_id* is not a member
        but may influence the shape (see ``ring``).
        """
        raise NotImplementedError

    def __repr__(self):
        return "<%s %r>" % (type(self).__name__, self.name)


def _path(members):
    """A single relay path visiting *members* in order, as a forest."""
    forest = ()
    for node in reversed(members):
        forest = ((node, forest),)
    return forest


class LeaderDirectStrategy(DisseminationStrategy):
    """The paper's baseline: the leader streams to every follower."""

    name = "leader-direct"
    direct = True

    def plan(self, leader_id, members):
        return tuple((node, ()) for node in members)


class ChainStrategy(DisseminationStrategy):
    """One relay chain through the followers in ascending id order."""

    name = "chain"

    def plan(self, leader_id, members):
        return _path(tuple(members))


class RingStrategy(DisseminationStrategy):
    """Chain rotated to start at the leader's successor on the id ring."""

    name = "ring"

    def plan(self, leader_id, members):
        members = tuple(members)
        pivot = 0
        for index, node in enumerate(members):
            if node > leader_id:
                pivot = index
                break
        return _path(members[pivot:] + members[:pivot])


class TreeStrategy(DisseminationStrategy):
    """Balanced fan-out tree over the followers in ascending id order.

    Members are laid out heap-style: the leader feeds the first
    ``fanout`` members; the member at index ``i`` feeds indices
    ``fanout*(i+1) .. fanout*(i+1)+fanout-1``.  Leader egress per
    transaction is proportional to the fan-out, depth to ``log n``.
    """

    name = "tree"

    def __init__(self, fanout=2):
        if fanout < 1:
            raise ConfigError("tree fanout must be >= 1")
        self.fanout = fanout

    def plan(self, leader_id, members):
        members = tuple(members)
        fanout = self.fanout

        def subtree(index):
            first = fanout * (index + 1)
            children = tuple(
                subtree(child)
                for child in range(first, min(first + fanout, len(members)))
            )
            return (members[index], children)

        return tuple(
            subtree(index) for index in range(min(fanout, len(members)))
        )


_REGISTRY = {
    "leader-direct": LeaderDirectStrategy,
    "chain": ChainStrategy,
    "tree": TreeStrategy,
    "ring": RingStrategy,
}


def resolve_dissemination(spec):
    """Normalise *spec* (a topology name or a strategy instance)."""
    if isinstance(spec, DisseminationStrategy):
        return spec
    factory = _REGISTRY.get(spec)
    if factory is None:
        raise ConfigError(
            "unknown dissemination topology %r (expected one of %s, or a "
            "DisseminationStrategy instance)"
            % (spec, ", ".join(DISSEMINATION_TOPOLOGIES))
        )
    return factory()


def plan_members(plan):
    """Every node covered by a relay *plan*, in visit order."""
    out = []
    stack = list(reversed(plan))
    while stack:
        node, children = stack.pop()
        out.append(node)
        stack.extend(reversed(children))
    return out
