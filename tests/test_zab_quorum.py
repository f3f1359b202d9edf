"""Unit and property tests for quorum verifiers."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.zab.leader import LeaderContext
from repro.zab.quorum import (
    HierarchicalQuorum,
    MajorityQuorum,
    WeightedQuorum,
)


# --- MajorityQuorum -----------------------------------------------------------

def test_majority_thresholds():
    assert MajorityQuorum([1]).threshold == 1
    assert MajorityQuorum([1, 2, 3]).threshold == 2
    assert MajorityQuorum(range(1, 6)).threshold == 3
    assert MajorityQuorum(range(1, 5)).threshold == 3  # 4 voters need 3


def test_majority_membership():
    quorum = MajorityQuorum([1, 2, 3, 4, 5])
    assert quorum.contains_quorum({1, 2, 3})
    assert not quorum.contains_quorum({1, 2})
    # Non-voters never count.
    assert not quorum.contains_quorum({1, 2, 99})


def test_majority_empty_rejected():
    with pytest.raises(ConfigError):
        MajorityQuorum([])


@given(st.integers(min_value=1, max_value=7))
def test_majority_intersection_property(n):
    assert MajorityQuorum(range(n)).validate_intersection()


# --- WeightedQuorum --------------------------------------------------------------

def test_weighted_majority_of_weight():
    quorum = WeightedQuorum({1: 1, 2: 1, 3: 3})
    assert quorum.contains_quorum({3})          # 3 of 5 weight
    assert not quorum.contains_quorum({1, 2})   # 2 of 5 weight


def test_weighted_zero_weight_voters_do_not_count():
    quorum = WeightedQuorum({1: 1, 2: 1, 3: 0})
    assert quorum.contains_quorum({1, 2})
    assert not quorum.contains_quorum({1, 3})


def test_weighted_validation():
    with pytest.raises(ConfigError):
        WeightedQuorum({})
    with pytest.raises(ConfigError):
        WeightedQuorum({1: -1})
    with pytest.raises(ConfigError):
        WeightedQuorum({1: 0, 2: 0})


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=4),
        min_size=1,
        max_size=6,
    ).filter(lambda weights: sum(weights.values()) > 0)
)
def test_weighted_intersection_property(weights):
    assert WeightedQuorum(weights).validate_intersection()


# --- HierarchicalQuorum ------------------------------------------------------------

def test_hierarchical_needs_majority_of_groups():
    quorum = HierarchicalQuorum({
        "dc1": {1: 1, 2: 1, 3: 1},
        "dc2": {4: 1, 5: 1, 6: 1},
        "dc3": {7: 1, 8: 1, 9: 1},
    })
    # Majorities inside dc1 and dc2: quorum.
    assert quorum.contains_quorum({1, 2, 4, 5})
    # Majority in only one group: no quorum.
    assert not quorum.contains_quorum({1, 2, 3, 4})


def test_hierarchical_group_internal_weight():
    quorum = HierarchicalQuorum({
        "a": {1: 3, 2: 1},
        "b": {3: 1},
    })
    assert quorum.contains_quorum({1, 3})
    assert not quorum.contains_quorum({2, 3})  # 1 of 4 weight in group a


def test_hierarchical_validation():
    with pytest.raises(ConfigError):
        HierarchicalQuorum({})
    with pytest.raises(ConfigError):
        HierarchicalQuorum({"a": {}})
    with pytest.raises(ConfigError):
        HierarchicalQuorum({"a": {1: 1}, "b": {1: 1}})


def test_hierarchical_voters_union():
    quorum = HierarchicalQuorum({"a": {1: 1, 2: 1}, "b": {3: 1}})
    assert quorum.voters == frozenset({1, 2, 3})


def test_hierarchical_intersection_small():
    quorum = HierarchicalQuorum({
        "a": {1: 1, 2: 1, 3: 1},
        "b": {4: 1, 5: 1, 6: 1},
        "c": {7: 1},
    })
    assert quorum.validate_intersection()


# --- All verifiers: a repeated member counts once ------------------------------------

_weights = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    min_size=1, max_size=6,
).filter(lambda weights: sum(weights.values()) > 0)


def _split_in_groups(weights):
    voters = sorted(weights)
    half = (len(voters) + 1) // 2
    groups = {"a": {v: weights[v] for v in voters[:half]}}
    if voters[half:]:
        groups["b"] = {v: weights[v] for v in voters[half:]}
    return groups


def test_repeated_member_is_not_a_quorum_of_three():
    for quorum in (
        MajorityQuorum([1, 2, 3]),
        WeightedQuorum({1: 1, 2: 1, 3: 1}),
        HierarchicalQuorum({"a": {1: 1, 2: 1, 3: 1}}),
    ):
        assert not quorum.contains_quorum([1, 1]), quorum
        assert quorum.contains_quorum([1, 2, 1]), quorum


@given(_weights, st.lists(st.integers(min_value=0, max_value=7), max_size=12))
def test_verdict_on_a_list_is_the_verdict_on_its_set(weights, members):
    for quorum in (
        MajorityQuorum(weights),
        WeightedQuorum(weights),
        HierarchicalQuorum(_split_in_groups(weights)),
    ):
        assert (quorum.contains_quorum(members)
                == quorum.contains_quorum(set(members))), quorum
        assert quorum.validate_intersection(), quorum


# --- Cumulative ACKs: high-water counting == per-proposal counting ---------------

def _per_proposal_commits(quorum, n, flushes):
    """Reference: one ACK per record, each counting only for its own
    proposal; the head commits while its ACK set holds a quorum."""
    acks = {z: set() for z in range(1, n + 1)}
    head, trail = 1, []
    for voter, records in flushes:
        for z in records:
            acks[z].add(voter)
            while head <= n and quorum.contains_quorum(acks[head]):
                head += 1
        trail.append(head - 1)
    return trail


def _high_water_commits(quorum, n, flushes):
    """The leader's rule on the coalesced stream: one ACK per flush, for
    its newest record, advances the voter's mark, and the head commits
    while ``LeaderContext._quorate`` holds for it."""
    leader = SimpleNamespace(acked={}, config=SimpleNamespace(quorum=quorum))
    head, trail = 1, []
    for voter, records in flushes:
        leader.acked[voter] = records[-1]
        while head <= n and LeaderContext._quorate(leader, head):
            head += 1
        trail.append(head - 1)
    return trail


@given(_weights, st.integers(min_value=1, max_value=12), st.data())
def test_high_water_marks_commit_what_per_proposal_sets_commit(
        weights, n, data):
    voters = sorted(weights)
    # Each voter logs a prefix 1..k of the proposals and acknowledges
    # every record; its flush boundaries cut that stream into runs, and
    # the cumulative side sees one ACK per run.  FIFO links keep each
    # voter's order; the interleaving across voters is arbitrary.
    streams = {}
    for voter in voters:
        ends = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=n)), label="flushes %d" % voter))
        streams[voter] = [list(range(start + 1, end + 1))
                          for start, end in zip([0] + ends, ends)]
    flushes = []
    while any(streams.values()):
        voter = data.draw(st.sampled_from(
            [v for v in voters if streams[v]]))
        flushes.append((voter, streams[voter].pop(0)))
    for quorum in (
        MajorityQuorum(weights),
        WeightedQuorum(weights),
        HierarchicalQuorum(_split_in_groups(weights)),
    ):
        assert (_high_water_commits(quorum, n, flushes)
                == _per_proposal_commits(quorum, n, flushes)), quorum
