"""Incremental CheckerState vs post-hoc check_all: same verdicts.

The contract under test (see :mod:`repro.checker.incremental`): over any
event sequence, the incremental checker's report carries the *same
multiset of (property, message) violations* as a post-hoc ``check_all``
over the same trace.  Three pressure sources:

- the seeded-bug corpus — every known-bad protocol variant, replayed
  through its canonical schedule, judged by both checkers;
- clean full-cluster runs — where the incremental fast path (no dirty
  flags, O(1) report) must hold *and* agree;
- adversarial random traces (hypothesis) — arbitrary interleavings,
  duplicate txn ids, out-of-order positions, deliveries before
  broadcasts: everything that trips the retroactivity fallbacks.
"""

import pytest

from repro.checker import CheckerState, Trace, check_all
from repro.harness import Cluster, ClusterConfig
from repro.harness.buggy import SEEDED_BUGS
from repro.harness.replay import replay_schedule
from repro.zab.zxid import Zxid
from tests.corpus import (
    test_e4b_seed_4_paxos_partition as e4b_seed_4,
    test_seed_17_paxos_primary_order as seed_17,
    test_seed_6_buggy_leader as seed_6,
    test_torn_write_tail as torn_write,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st


def _multiset(report):
    return sorted(
        (violation.prop, violation.message)
        for violation in report.violations
    )


def _assert_equivalent(trace):
    state = CheckerState.attach(trace)
    incremental = state.report()
    posthoc = check_all(trace)
    assert _multiset(incremental) == _multiset(posthoc)
    assert incremental.stats == posthoc.stats
    return state


# ---------------------------------------------------------------------------
# Seeded-bug corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SEEDED_BUGS))
def test_equivalent_on_seeded_bug(name):
    bug = SEEDED_BUGS[name]
    result = replay_schedule(
        bug.canonical_schedule(), ClusterConfig(leader_factory=bug.factory)
    )
    trace = result.cluster.trace
    state = _assert_equivalent(trace)
    # The bug's pinned property set must come out of the incremental
    # checker too, or the explorer would mis-signature it.
    assert state.violated_properties() == bug.expected


def test_equivalent_on_clean_cluster_run():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=11)).start()
    cluster.run_until_stable(timeout=30)
    state = CheckerState.attach(cluster.trace)
    for i in range(15):
        cluster.submit_and_wait(("incr", "x", 1))
    cluster.crash(cluster.leader().peer_id)
    cluster.run_until_stable(timeout=30)
    for i in range(5):
        cluster.submit_and_wait(("put", "k%d" % i, i))
    cluster.run(1.0)
    assert state.ok
    posthoc = check_all(cluster.trace)
    assert posthoc.ok
    assert _multiset(state.report()) == _multiset(posthoc)
    # A clean real execution must ride the eager fast path the whole
    # way — no dirty flag, or report() degenerates to post-hoc cost.
    assert not state._integrity_dirty
    assert not state._order_dirty
    assert not state._lpo_dirty
    assert not state._pi_dirty


def test_attach_catches_up_on_existing_events():
    trace = Trace()
    trace.record_broadcast(1, 1, Zxid(1, 1), "t1")
    trace.record_delivery(1, 1, 1, Zxid(1, 1), "t1")
    state = CheckerState.attach(trace)     # after the fact
    assert state.ok
    trace.record_delivery(2, 1, 1, Zxid(1, 1), "t1")   # streams through
    assert state.ok
    trace.record_delivery(2, 1, 2, Zxid(1, 2), "t-unbroadcast")
    assert state.violated_properties() == {
        "integrity", "local_primary_order",
    }
    assert _multiset(state.report()) == _multiset(check_all(trace))


def test_report_is_cached_until_next_event():
    trace = Trace()
    state = CheckerState.attach(trace)
    trace.record_broadcast(1, 1, Zxid(1, 1), "t1")
    first = state.report()
    assert state.report() is first
    trace.record_delivery(1, 1, 1, Zxid(1, 1), "t1")
    assert state.report() is not first


#: Every schedule ``tests/corpus/`` replays, with its cluster config.
CORPUS = {
    "e4b_seed_4": (e4b_seed_4.SCHEDULE, e4b_seed_4.CONFIG),
    "seed_17": (seed_17.SCHEDULE, seed_17.CONFIG),
    "seed_6": (seed_6.SCHEDULE, seed_6.CONFIG),
    "torn_write_1": (torn_write.schedule(1), torn_write.CONFIG),
    "torn_write_3": (torn_write.schedule(3), torn_write.CONFIG),
}
CORPUS.update(
    ("bug_" + name, (bug.canonical_schedule(),
                     ClusterConfig(leader_factory=bug.factory)))
    for name, bug in SEEDED_BUGS.items()
)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_report_stats_equal_the_trace_stats_on_the_corpus(name):
    # report() counts from its own indexes instead of walking the trace.
    schedule, config = CORPUS[name]
    trace = replay_schedule(schedule, config).cluster.trace
    assert trace.deliveries
    assert CheckerState.attach(trace).report().stats == trace.stats()


# ---------------------------------------------------------------------------
# Adversarial random traces
# ---------------------------------------------------------------------------

_EVENTS = st.lists(
    st.one_of(
        # broadcast: (primary, epoch, zxid-epoch, zxid-counter, txn)
        st.tuples(
            st.just("b"),
            st.integers(1, 3), st.integers(1, 3),
            st.integers(1, 3), st.integers(1, 5),
            st.integers(0, 7),
        ),
        # delivery: (process, incarnation, position, zxid-e, zxid-c, txn)
        st.tuples(
            st.just("d"),
            st.integers(1, 3), st.integers(1, 2),
            st.integers(1, 8), st.integers(1, 3),
            st.integers(1, 5), st.integers(0, 7),
        ),
    ),
    max_size=60,
)


def _feed(trace, events):
    for event in events:
        if event[0] == "b":
            _tag, primary, epoch, ze, zc, txn = event
            trace.record_broadcast(primary, epoch, Zxid(ze, zc), "t%d" % txn)
        else:
            _tag, process, inc, position, ze, zc, txn = event
            trace.record_delivery(
                process, inc, position, Zxid(ze, zc), "t%d" % txn,
                epoch=ze,
            )


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_equivalent_on_arbitrary_event_sequences(events):
    trace = Trace()
    _feed(trace, events)
    _assert_equivalent(trace)


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_report_stats_equal_the_trace_stats(events):
    trace = Trace()
    state = CheckerState.attach(trace)
    for event in events:
        _feed(trace, [event])
        assert state.report().stats == trace.stats()


@settings(max_examples=100, deadline=None)
@given(_EVENTS, _EVENTS)
def test_attach_split_point_is_irrelevant(head, tail):
    """Catching up on a backlog then streaming gives the same verdict
    as streaming everything (and as post-hoc)."""
    trace = Trace()
    _feed(trace, head)
    state = CheckerState.attach(trace)    # backlog replayed here
    _feed(trace, tail)                    # observed live
    posthoc = check_all(trace)
    assert _multiset(state.report()) == _multiset(posthoc)
