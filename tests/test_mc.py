"""Unit tests for the bounded schedule explorer (repro.mc)."""

import hashlib
import json

import pytest

from repro.harness import Cluster, ClusterConfig
from repro.harness.buggy import SEEDED_BUGS
from repro.mc import (
    Chooser,
    DfsFrontier,
    DivergentReplayError,
    Explorer,
    ExplorerConfig,
    InterleavingPolicy,
    cluster_fingerprint,
    explore_schedules,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator


# ----------------------------------------------------------------------
# Chooser
# ----------------------------------------------------------------------


def test_chooser_defaults_to_first_alternative():
    chooser = Chooser()
    assert [chooser.next(3), chooser.next(2), chooser.next(5)] == [0, 0, 0]
    assert chooser.taken == [0, 0, 0]
    assert chooser.arities == [3, 2, 5]
    assert len(chooser) == 3


def test_chooser_replays_prefix_then_defaults():
    chooser = Chooser([2, 1])
    assert chooser.next(3) == 2
    assert chooser.next(2) == 1
    assert chooser.next(4) == 0
    assert chooser.taken == [2, 1, 0]


def test_chooser_records_labels():
    chooser = Chooser()
    chooser.next(2, label="step0")
    assert chooser.labels == ["step0"]


def test_chooser_rejects_prefix_outside_arity():
    chooser = Chooser([5])
    with pytest.raises(DivergentReplayError):
        chooser.next(3)


def test_chooser_rejects_zero_arity():
    with pytest.raises(ValueError):
        Chooser().next(0)


# ----------------------------------------------------------------------
# DfsFrontier
# ----------------------------------------------------------------------


def run_choices(prefix, arities):
    chooser = Chooser(prefix)
    for arity in arities:
        chooser.next(arity)
    return chooser


def test_frontier_starts_with_empty_prefix():
    frontier = DfsFrontier()
    assert len(frontier) == 1
    assert frontier.pop() == []


def test_frontier_expands_untaken_siblings_depth_first():
    frontier = DfsFrontier()
    prefix = frontier.pop()
    added = frontier.expand(prefix, run_choices(prefix, [3, 2]))
    assert added == 3  # values 1,2 at depth 0; value 1 at depth 1
    # DFS: the deepest choice point's sibling pops first, then the
    # shallow alternatives in reverse push order.
    assert frontier.pop() == [0, 1]
    assert frontier.pop() == [2]
    assert frontier.pop() == [1]
    assert len(frontier) == 0


def test_frontier_does_not_requeue_scripted_prefix_siblings():
    frontier = DfsFrontier()
    frontier.pop()
    # A sibling run scripted to [1]: only choice points *beyond* the
    # prefix spawn alternatives — depth 0's were queued by the parent.
    added = frontier.expand([1], run_choices([1], [3, 2]))
    assert added == 1
    assert frontier.pop() == [1, 1]


def test_frontier_peek_lists_the_next_pops_in_order():
    frontier = DfsFrontier()
    prefix = frontier.pop()
    frontier.expand(prefix, run_choices(prefix, [3, 2]))
    assert frontier.peek(2) == [[0, 1], [2]]
    assert frontier.peek(8) == [[0, 1], [2], [1]]
    assert len(frontier) == 3  # peeking pops nothing


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------


def booted_cluster(**kwargs):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0, **kwargs)).start()
    cluster.run_until_stable(timeout=60)
    return cluster


def test_identical_executions_share_a_fingerprint():
    first, second = booted_cluster(), booted_cluster()
    assert cluster_fingerprint(first) == cluster_fingerprint(second)


def test_fingerprint_reflects_crashes_and_partitions():
    cluster = booted_cluster()
    baseline = cluster_fingerprint(cluster)
    cluster.crash(1)
    after_crash = cluster_fingerprint(cluster)
    assert after_crash != baseline
    cluster.partition([2])
    assert cluster_fingerprint(cluster) != after_crash


def test_fingerprint_reflects_committed_writes():
    cluster = booted_cluster()
    baseline = cluster_fingerprint(cluster)
    cluster.submit_and_wait(("put", "k", 1))
    assert cluster_fingerprint(cluster) != baseline


# ----------------------------------------------------------------------
# Explorer
# ----------------------------------------------------------------------


def test_small_scope_exploration_is_clean_and_exhaustive():
    result = explore_schedules(peers=3, depth=3, max_violations=0)
    assert result.ok
    assert result.exhausted
    assert result.frontier_left == 0
    assert result.runs > 1          # the tree actually branched
    assert result.states_pruned > 0  # and the pruning did real work


def test_exploration_is_deterministic():
    first = explore_schedules(peers=3, depth=2, max_violations=0)
    second = explore_schedules(peers=3, depth=2, max_violations=0)
    assert (first.runs, first.states_visited, first.states_pruned) == (
        second.runs, second.states_visited, second.states_pruned
    )
    assert first.to_json() == second.to_json()


def test_budget_stop_is_reported_not_silent():
    result = explore_schedules(
        peers=3, depth=4, max_schedules=5, max_violations=0
    )
    assert result.runs == 5
    assert result.stopped_reason == "max_schedules"
    assert not result.exhausted
    assert result.frontier_left > 0
    summary = result.to_json()
    assert summary["frontier_truncated"] == result.frontier_left
    assert summary["stopped_reason"] == "max_schedules"


def test_explorer_finds_seeded_bug_and_emits_replayable_schedule():
    bug = SEEDED_BUGS["quorum_skip"]
    result = explore_schedules(
        peers=3, depth=4, leader_factory=bug.factory, max_violations=1
    )
    assert result.violations, "explorer missed the seeded quorum bug"
    violation = result.violations[0]
    assert violation.confirmed, (
        "stock replay of the emitted schedule did not reproduce: %r"
        % (violation.replay_signature,)
    )
    assert violation.schedule.actions  # a real schedule, not a stub
    assert violation.schedule.meta["explored_prefix"] == list(
        violation.prefix
    )


#: sha256 of the sorted-key JSON summary of three searches, recorded
#: before a leader event's PROPOSEs and COMMIT could share a frame.  An
#: explored execution has one broadcast message per leader event, which
#: leaves the leader exactly as it did before, so framing must leave
#: these searches byte-identical.
_SEARCH_DIGESTS = [
    ({"depth": 4},
     "9a575c895018c126e8cfb3dbcbc99df814b6a375654b0e155d8e2c224bcb49cd"),
    ({"depth": 4, "dissemination": "chain"},
     "a2a24ca1d9178a3166f1063b2ca731ec11a2b875ac256705fdec0b53bc921133"),
    ({"depth": 3, "interleave": True, "max_schedules": 64},
     "d382bc657c5fe067312c149ab42df346923753b6e1d9f66f8313b5799dac5f84"),
]


@pytest.mark.parametrize("options,digest", _SEARCH_DIGESTS)
def test_search_summary_is_pinned_byte_for_byte(options, digest):
    summary = Explorer(ExplorerConfig(**options)).run().to_json()
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, summary


@pytest.mark.parametrize("seeded,fingerprints,pruned_at,visited", [
    # Reached before at a shallower step: this run stops there.
    ({"b": 0}, "abcd", 1, {"a": 0, "b": 0}),
    # Reached before at a deeper step: this run goes on, and owns it
    # from its own, shallower step.
    ({"b": 3}, "abcd", None, {"a": 0, "b": 1, "c": 2, "d": 3}),
    # Reached earlier in this very run: it stops there.
    ({}, "abad", 2, {"a": 0, "b": 1}),
], ids=["shallower", "deeper", "own"])
def test_a_run_writes_the_visited_map_and_stops_on_a_revisit(
        monkeypatch, seeded, fingerprints, pruned_at, visited):
    scripted = iter(fingerprints)
    monkeypatch.setattr("repro.mc.explorer.cluster_fingerprint",
                        lambda cluster, storage_state: next(scripted))
    explorer = Explorer(ExplorerConfig(depth=4))
    explorer._visited.update(seeded)
    run = explorer._execute([])
    assert explorer._visited == visited
    assert run.pruned == (pruned_at is not None)
    steps = 4 if pruned_at is None else pruned_at + 1
    assert run.steps == len(run.taken) == len(run.arities) == steps
    if run.pruned:
        assert run.signature == () and run.recorder is None


def test_explore_pins_depth_3():
    result = Explorer(ExplorerConfig(depth=3, max_violations=0)).run()
    assert (result.runs, result.states_visited) == (36, 47)
    assert result.exhausted and result.ok


def test_explorer_confirms_a_seeded_bug_and_dumps_its_flight(tmp_path):
    result = Explorer(ExplorerConfig(
        depth=4, max_schedules=64, max_violations=1,
        leader_factory=SEEDED_BUGS["quorum_skip"].factory,
        recorder_dir=str(tmp_path),
    )).run()
    violation, = result.violations
    assert violation.confirmed
    path = tmp_path / "violation-0.flight.jsonl"
    assert violation.flight_path == str(path)
    assert path.read_bytes()


def test_explorer_publishes_metrics():
    registry = MetricsRegistry()
    result = explore_schedules(
        peers=3, depth=1, max_violations=0, metrics=registry
    )
    counters = registry.snapshot()["counters"]
    assert counters["mc.runs"] >= 1
    assert "mc.violations" in counters
    # Every execution but the root's resumes from the root's image.
    assert counters["mc.resumed"] == result.resumed == result.runs - 1


def test_progress_callback_sees_every_run():
    seen = []
    result = explore_schedules(
        peers=3, depth=1, max_violations=0,
        progress=lambda r: seen.append(r.runs),
    )
    assert len(seen) == result.runs


@pytest.mark.slow
def test_deeper_exploration_stays_clean():
    # Exhaustive to depth 4 (~110 executions): still zero violations on
    # the correct protocol.  Too heavy for tier-1, cheap for the deep job.
    result = explore_schedules(peers=3, depth=4, max_violations=0)
    assert result.ok
    assert result.exhausted


def test_interleave_mode_branches_on_delivery_order():
    result = explore_schedules(
        peers=3, depth=1, max_violations=0, max_schedules=8,
        interleave=True,
    )
    assert result.ok
    assert result.por_skipped > 0, "POR never collapsed a commuting tie"
    assert result.choice_points > result.config.depth * result.runs, (
        "interleave mode added no delivery-order choice points"
    )


# ----------------------------------------------------------------------
# Quiescence: every judged run stops before the settle cap
# ----------------------------------------------------------------------


@pytest.fixture
def quiesce_calls(monkeypatch):
    """``(quiesced, sim_seconds, cap)`` per quiesce wait, in order."""
    calls = []
    run_until = Cluster.run_until

    def spy(self, predicate, timeout=30.0, step=0.01):
        start = self.sim.now
        quiesced = run_until(self, predicate, timeout=timeout, step=step)
        if "quiesce_and_judge" in predicate.__qualname__:
            calls.append((quiesced, self.sim.now - start, timeout))
        return quiesced

    monkeypatch.setattr(Cluster, "run_until", spy)
    return calls


def _all_before_cap(calls):
    return all(ok and took < cap for ok, took, cap in calls)


def test_every_judged_execution_quiesces_before_the_cap(
        quiesce_calls, monkeypatch):
    # Counts the kernel events this process fires, whether an
    # execution booted its cluster or resumed a pickled image of one.
    fired = []
    run = Simulator.run

    def spy(self, *args, **kwargs):
        before = self.events_fired
        try:
            return run(self, *args, **kwargs)
        finally:
            fired.append(self.events_fired - before)

    monkeypatch.setattr(Simulator, "run", spy)
    result = explore_schedules(peers=3, depth=3, max_violations=0)
    assert (result.runs, result.states_visited, result.states_pruned) == (
        36, 47, 4
    )
    assert len(quiesce_calls) == 32
    assert _all_before_cap(quiesce_calls)
    # 44,255 while every judged run settled a fixed 2.0 s; 13,229 while
    # every execution booted and re-ran its scripted prefix.
    assert sum(fired) == 2828


def test_stock_zab_campaign_quiesces_before_the_cap(quiesce_calls):
    from repro.bench.campaign import run_adversarial_campaign

    outcomes = run_adversarial_campaign(range(40), ClusterConfig())
    assert all(outcome.passed for outcome in outcomes)
    assert len(quiesce_calls) == 40
    assert _all_before_cap(quiesce_calls)


def test_quiescence_waits_for_a_recovered_follower():
    from repro.harness.replay import _quiescent

    cluster = Cluster(ClusterConfig()).start()
    leader = cluster.run_until_stable()
    follower_id = min(
        peer_id for peer_id, peer in cluster.peers.items()
        if peer is not leader
    )
    follower = cluster.peers[follower_id]
    cluster.crash(follower_id)
    for _ in range(5):
        leader.propose_op(("incr", "k", 1))
    cluster.run(0.5)
    cluster.recover(follower_id)
    floor = cluster.run_until_stable().last_committed
    assert follower.last_committed == floor  # caught up by sync alone
    assert not _quiescent(cluster, floor)

    cluster.leader().propose_op(("incr", "k", 1))
    lagged = False
    while not _quiescent(cluster, floor):
        lagged |= cluster.leader().last_committed > follower.last_committed
        cluster.run(0.0001)
    assert lagged  # the leader delivered first, and that was not enough
    assert follower.last_committed > floor
    assert follower.last_committed == cluster.leader().last_committed
