"""Resuming an explored execution from a pickled step-boundary image.

Every prefix the explorer resumes from its parent's image must run
exactly as if it had booted and replayed its scripted prefix: same
choices, same writes to the visited map, same verdict, same history.
"""

import hashlib
import json

import pytest

from repro.harness.buggy import SEEDED_BUGS
from repro.mc import Explorer, ExplorerConfig


def _trace_digest(cluster):
    trace = cluster.trace
    blob = repr((
        cluster.sim.now, cluster.sim.events_fired,
        trace.broadcasts, trace.deliveries,
    ))
    return hashlib.sha256(blob.encode()).hexdigest()


def _outcome(run, cluster, dump_path):
    dump = None
    if run.recorder is not None:
        run.recorder.dump(str(dump_path), reason="test")
        with open(dump_path, "rb") as handle:
            dump = handle.read()
    return (
        run.taken, run.arities, run.pruned, run.steps, dict(run.por),
        run.signature, run.error, sorted(run.images), _trace_digest(cluster),
        dump,
    )


@pytest.fixture
def run_twice(monkeypatch, tmp_path):
    """Run every resumed execution a second time, booted, and compare.

    The booted run starts from the visited map the resumed run started
    from, and must leave the same map.  Returns the list of
    ``(prefix, outcome)`` pairs it compared.
    """
    compared = []
    clusters = []
    step_options = Explorer._step_options
    execute = Explorer._execute

    def spy_options(self, cluster):
        clusters.append(cluster)
        return step_options(self, cluster)

    def twice(self, prefix, image=None):
        if image is None:
            return execute(self, prefix)
        before = dict(self._visited)
        run = execute(self, prefix, image)
        resumed = _outcome(run, clusters[-1], tmp_path / "resumed.jsonl")
        after, self._visited = self._visited, before
        booted = execute(self, prefix)
        assert _outcome(booted, clusters[-1],
                        tmp_path / "booted.jsonl") == resumed, prefix
        assert self._visited == after, prefix
        compared.append((tuple(prefix), resumed))
        return run

    monkeypatch.setattr(Explorer, "_step_options", spy_options)
    monkeypatch.setattr(Explorer, "_execute", twice)
    return compared


@pytest.mark.parametrize("options", [
    {},
    {"ops_actions": True},
    {"dissemination": "chain"},
    {"interleave": True, "max_schedules": 64},
    {"peers": 5},
], ids=["default", "ops-actions", "chain", "interleave", "peers5"])
def test_a_resumed_execution_equals_its_booted_replay(run_twice, options):
    result = Explorer(ExplorerConfig(
        depth=3, max_violations=0, **options)).run()
    assert result.ok
    # Every execution but the root's resumes, and each was compared.
    assert result.resumed == result.runs - 1 == len(run_twice)


def test_a_resumed_violation_ships_the_booted_flight_dump(run_twice):
    result = Explorer(ExplorerConfig(
        depth=3, leader_factory=SEEDED_BUGS["quorum_skip"].factory,
    )).run()
    violation, = result.violations
    assert violation.confirmed
    dumps = {prefix: outcome[-1] for prefix, outcome in run_twice}
    assert dumps[violation.prefix] is not None  # compared byte for byte


class _ModuleLevelQuorumSkip(SEEDED_BUGS["quorum_skip"].factory):
    """Picklable: pickle finds it by its module-level name."""


def test_an_unpicklable_execution_boots_every_run_with_the_same_result():
    class LocalQuorumSkip(SEEDED_BUGS["quorum_skip"].factory):
        """Unpicklable: pickle cannot find a class local to a function."""

    results = [
        Explorer(ExplorerConfig(
            depth=3, max_violations=0, leader_factory=factory)).run()
        for factory in (_ModuleLevelQuorumSkip, LocalQuorumSkip)
    ]
    picklable, local = results
    assert picklable.resumed > 0
    assert local.resumed == 0
    assert local.violations
    assert (json.dumps(local.to_json(), sort_keys=True)
            == json.dumps(picklable.to_json(), sort_keys=True))
