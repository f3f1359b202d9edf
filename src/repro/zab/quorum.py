"""Quorum verifiers.

Zab is parameterised over a quorum system: any two quorums must intersect.
ZooKeeper ships three verifiers, all reproduced here:

- :class:`MajorityQuorum` — simple majority of the voters (the default);
- :class:`WeightedQuorum` — majority of total voter weight;
- :class:`HierarchicalQuorum` — a majority of groups, each of which must
  itself contribute a weighted majority (used for multi-datacenter
  deployments).
"""

from repro.common.errors import ConfigError
from repro.common.util import majority


class QuorumVerifier:
    """Interface: decides whether a set of voters forms a quorum."""

    @property
    def voters(self):
        """The frozenset of voting peer ids."""
        raise NotImplementedError

    def contains_quorum(self, members):
        """True if *members* (an iterable of peer ids) includes a quorum.

        A peer id that occurs more than once counts once.
        """
        raise NotImplementedError

    def validate_intersection(self):
        """Sanity check used by tests: every two quorums must intersect.

        Exponential in the number of voters; only call on small ensembles.
        """
        voters = sorted(self.voters)
        subsets = []
        for mask in range(1 << len(voters)):
            subset = frozenset(
                voters[i] for i in range(len(voters)) if mask & (1 << i)
            )
            if self.contains_quorum(subset):
                subsets.append(subset)
        return all(a & b for a in subsets for b in subsets)


class MajorityQuorum(QuorumVerifier):
    """Simple majority of the voter set."""

    def __init__(self, voters):
        voters = frozenset(voters)
        if not voters:
            raise ConfigError("voter set must not be empty")
        self._voters = voters
        self._threshold = majority(len(voters))

    @property
    def voters(self):
        return self._voters

    @property
    def threshold(self):
        """Number of voters required."""
        return self._threshold

    def contains_quorum(self, members):
        return len(self._voters.intersection(members)) >= self._threshold

    def __repr__(self):
        return "MajorityQuorum(%d of %d)" % (
            self._threshold,
            len(self._voters),
        )


class WeightedQuorum(QuorumVerifier):
    """Strict majority of total voter weight.

    Voters with weight zero participate in the protocol but never affect
    quorum decisions (ZooKeeper allows this for tie-breaking topologies).
    """

    def __init__(self, weights):
        if not weights:
            raise ConfigError("weights must not be empty")
        for voter, weight in weights.items():
            if weight < 0:
                raise ConfigError(
                    "negative weight for %r: %r" % (voter, weight)
                )
        total = sum(weights.values())
        if total <= 0:
            raise ConfigError("total weight must be positive")
        self._weights = dict(weights)
        self._total = total

    @property
    def voters(self):
        return frozenset(self._weights)

    def contains_quorum(self, members):
        weight = sum(
            self._weights.get(member, 0) for member in set(members)
        )
        return 2 * weight > self._total

    def __repr__(self):
        return "WeightedQuorum(total=%d)" % self._total


class HierarchicalQuorum(QuorumVerifier):
    """Majority of groups, each contributing a weighted majority.

    *groups* maps a group id to a dict of ``{voter: weight}``.  A set of
    members is a quorum iff, for a strict majority of groups, the members
    inside the group hold a strict majority of the group's weight.
    """

    def __init__(self, groups):
        if not groups:
            raise ConfigError("groups must not be empty")
        seen = set()
        for group_id, weights in groups.items():
            if not weights:
                raise ConfigError("group %r is empty" % (group_id,))
            for voter in weights:
                if voter in seen:
                    raise ConfigError(
                        "voter %r appears in multiple groups" % (voter,)
                    )
                seen.add(voter)
        self._groups = {gid: dict(w) for gid, w in groups.items()}

    @property
    def voters(self):
        return frozenset(
            voter for weights in self._groups.values() for voter in weights
        )

    def contains_quorum(self, members):
        members = set(members)
        satisfied = 0
        counted = 0
        for weights in self._groups.values():
            total = sum(weights.values())
            if total == 0:
                continue  # all-zero-weight group never counts
            counted += 1
            held = sum(
                weight
                for voter, weight in weights.items()
                if voter in members
            )
            if 2 * held > total:
                satisfied += 1
        return counted > 0 and 2 * satisfied > counted

    def __repr__(self):
        return "HierarchicalQuorum(%d groups)" % len(self._groups)
