"""Checker self-test corpus: every seeded bug trips its exact property set.

The PO property checker is the oracle for everything else in the test
stack (replay, shrink, the bounded explorer), so it needs its own
regression net.  For each entry in
:data:`repro.harness.buggy.SEEDED_BUGS` this file replays the bug's
canonical schedule and asserts the checker flags **exactly** the
registered property set — nothing missing (the checker still catches the
bug) and nothing extra (the checker has not started crying wolf).

A completeness check keeps the registry honest: defining a new buggy
LeaderContext without registering it (and thus without corpus coverage)
fails loudly.  The explorer-side test — the bounded search *finds* each
seeded bug from scratch — is heavier and lives in the ``explore`` tier.
"""

import inspect

import pytest

from repro.harness import ClusterConfig, buggy, replay_schedule
from repro.harness.buggy import SEEDED_BUGS
from repro.harness.shrink import shrink_schedule
from repro.mc import explore_schedules
from repro.zab.leader import LeaderContext

ALL_BUGS = sorted(SEEDED_BUGS)


@pytest.mark.parametrize("name", ALL_BUGS)
def test_checker_flags_exactly_the_registered_properties(name):
    bug = SEEDED_BUGS[name]
    result = replay_schedule(
        bug.canonical_schedule(), ClusterConfig(leader_factory=bug.factory)
    )
    assert not result.passed, "%s: canonical schedule no longer triggers" % name
    violated = result.report.violated_properties()
    assert violated == set(bug.expected), (
        "%s: checker flagged %s, registry expects %s — either the "
        "checker regressed or the registry is stale"
        % (name, sorted(violated), sorted(bug.expected))
    )


@pytest.mark.parametrize("name", ALL_BUGS)
def test_violation_signature_is_stable_across_replays(name):
    bug = SEEDED_BUGS[name]
    first = replay_schedule(
        bug.canonical_schedule(), ClusterConfig(leader_factory=bug.factory)
    )
    second = replay_schedule(
        bug.canonical_schedule(), ClusterConfig(leader_factory=bug.factory)
    )
    assert first.signature == second.signature
    assert first.signature, "%s: empty signature cannot pin a bug" % name


def test_correct_leader_passes_every_canonical_schedule():
    # The same schedules against stock Zab must be clean: the corpus
    # pins checker *sensitivity*; this pins its *specificity*.
    for name in ALL_BUGS:
        result = replay_schedule(SEEDED_BUGS[name].canonical_schedule())
        assert result.passed, (
            "%s: canonical schedule breaks the CORRECT protocol — the "
            "corpus would no longer isolate the seeded bug" % name
        )


def test_every_buggy_variant_is_registered():
    registered = {bug.factory for bug in SEEDED_BUGS.values()}
    defined = {
        obj
        for _name, obj in inspect.getmembers(buggy, inspect.isclass)
        if issubclass(obj, LeaderContext) and obj is not LeaderContext
    }
    unregistered = defined - registered
    assert not unregistered, (
        "buggy LeaderContext variants missing from SEEDED_BUGS (no "
        "corpus coverage): %s"
        % sorted(cls.__name__ for cls in unregistered)
    )


@pytest.mark.explore
@pytest.mark.parametrize("name", ALL_BUGS)
def test_explorer_finds_each_seeded_bug_within_budget(name):
    bug = SEEDED_BUGS[name]
    result = explore_schedules(
        peers=3, depth=8, leader_factory=bug.factory, max_violations=1,
        **bug.explorer_kwargs
    )
    assert result.violations, "explorer never tripped %s" % name
    violation = result.violations[0]
    assert violation.confirmed, (
        "%s: stock replay of the emitted schedule diverged" % name
    )
    assert violation.schedule.actions or name != "quorum_skip", (
        "quorum_skip only surfaces under faults; an empty schedule "
        "means the explorer found something else entirely"
    )


@pytest.mark.explore
def test_snapshot_skip_shrinks_to_minimal_trigger():
    # The canonical schedule carries a recover_all that the quiesce
    # phase makes redundant; ddmin must discover that and keep only
    # the essential crash -> snapshot -> compact chain.
    bug = SEEDED_BUGS["snapshot_skip"]
    result = shrink_schedule(
        bug.canonical_schedule(),
        config=ClusterConfig(leader_factory=bug.factory),
    )
    kinds = [action.kind for action in result.schedule]
    assert len(kinds) <= 3, "expected ddmin to drop recover_all: %s" % kinds
    assert set(kinds) == {"crash_follower", "snapshot", "compact_log"}
    violated = {prop for prop, _zxid in result.signature}
    assert violated == set(bug.expected)
