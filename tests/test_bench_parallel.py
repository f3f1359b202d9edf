"""Tests for ``--workers``: campaigns and the explorer on a process pool.

The contract under test is that the worker count changes wall-clock
only.  Campaign reports are **byte-identical** for every worker count,
and the explorer's summary, violations and flight dumps are the serial
search's own, byte for byte.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.campaign import (
    campaign_report,
    render_campaign,
    run_adversarial_campaign,
    write_campaign_report,
)
from repro.common.pool import partition_items
from repro.harness.buggy import SEEDED_BUGS
from repro.mc import Chooser, DivergentReplayError, Explorer, ExplorerConfig


def small_campaign(workers):
    return run_adversarial_campaign(
        range(3), steps=3, workers=workers,
    )


def small_config(**kwargs):
    kwargs.setdefault("peers", 3)
    kwargs.setdefault("depth", 2)
    kwargs.setdefault("max_schedules", 256)
    kwargs.setdefault("max_violations", 0)
    return ExplorerConfig(**kwargs)


def summary(config, workers):
    result = Explorer(config).run(workers=workers)
    return json.dumps(result.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# Partitioning: loses nothing, duplicates nothing
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(st.integers(), max_size=64),
    workers=st.integers(min_value=1, max_value=9),
)
def test_partition_loses_and_duplicates_nothing(items, workers):
    chunks = partition_items(items, workers)
    assert len(chunks) == workers
    merged = [item for chunk in chunks for item in chunk]
    assert sorted(merged) == sorted(items)
    # Round-robin is the stable assignment the merge order relies on.
    for worker, chunk in enumerate(chunks):
        assert chunk == items[worker::workers]


def test_partition_rejects_zero_workers():
    with pytest.raises(ValueError):
        partition_items([1, 2], 0)


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

def test_campaign_serial_vs_parallel_byte_identical(tmp_path):
    paths = {}
    for workers in (1, 2, 4):
        outcomes = small_campaign(workers)
        path = tmp_path / ("campaign-%dw.json" % workers)
        write_campaign_report(outcomes, str(path))
        paths[workers] = path.read_bytes()
    assert paths[1] == paths[2] == paths[4]


def test_campaign_outcomes_come_back_in_seed_order():
    outcomes = run_adversarial_campaign(range(5), workers=3, steps=3)
    assert [outcome.seed for outcome in outcomes] == [0, 1, 2, 3, 4]
    # Round-robin over 3 workers: seeds 0,3 on worker 0, 1,4 on 1, 2 on 2.
    assert [outcome.worker for outcome in outcomes] == [0, 1, 2, 0, 1]


def test_campaign_outcomes_carry_attribution_stamps():
    outcomes = small_campaign(2)
    assert all(outcome.elapsed is not None and outcome.elapsed > 0
               for outcome in outcomes)
    assert {outcome.worker for outcome in outcomes} == {0, 1}


def test_campaign_report_excludes_wall_clock_and_worker():
    outcomes = small_campaign(2)
    report = campaign_report(outcomes)
    blob = json.dumps(report)
    assert "elapsed" not in blob
    assert "worker" not in blob
    assert report["schema"] == "repro-campaign/v1"
    assert report["summary"]["runs"] == 3
    assert report["summary"]["latency"]["count"] > 0


def test_campaign_report_merges_latency_across_runs():
    outcomes = small_campaign(1)
    report = campaign_report(outcomes)
    merged = report["summary"]["latency"]
    assert merged["count"] == sum(
        row["latency"]["count"] for row in report["runs"]
    )


def test_render_campaign_is_order_independent():
    outcomes = small_campaign(1)
    shuffled = [outcomes[2], outcomes[0], outcomes[1]]
    assert render_campaign(outcomes) == render_campaign(shuffled)
    assert "ALL 3 RUNS PASSED" in render_campaign(shuffled)


def test_render_campaign_shows_worker_column_when_stamped():
    outcomes = small_campaign(2)
    table = render_campaign(outcomes)
    assert "worker" in table
    assert "ms" in table


# ---------------------------------------------------------------------------
# Explorer: one search, whatever the worker count
# ---------------------------------------------------------------------------

def test_explore_workers_byte_identical_summary():
    summaries = {
        workers: summary(small_config(), workers) for workers in (1, 2, 4)
    }
    assert summaries[1] == summaries[2] == summaries[4]


def test_explore_pins_depth_3_for_every_worker_count():
    # Pinned exactly: one visited map and one budget for the whole tree,
    # whichever processes executed the prefixes.
    for workers in (1, 2, 4):
        result = Explorer(small_config(depth=3)).run(workers=workers)
        assert (result.runs, result.states_visited) == (36, 47), workers
        assert result.exhausted and result.ok


_QUORUM_SKIP = SEEDED_BUGS["quorum_skip"].factory

# The budget stops, the alternative branching alphabets and both
# violation modes, each small enough to run three times in tier-1.
_SEARCHES = {
    "ops_actions": dict(depth=2, ops_actions=True),
    "chain": dict(depth=2, dissemination="chain"),
    "interleave": dict(depth=2, interleave=True, max_schedules=16),
    "max_schedules": dict(depth=4, max_schedules=12),
    "max_states": dict(depth=4, max_states=20),
    "first_violation": dict(depth=4, max_violations=1,
                            leader_factory=_QUORUM_SKIP),
    "every_violation": dict(depth=2, leader_factory=_QUORUM_SKIP),
}
_serial = {}


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_explore_workers_return_the_serial_search(search, workers):
    if search not in _serial:
        _serial[search] = summary(small_config(**_SEARCHES[search]), 1)
    parallel = summary(small_config(**_SEARCHES[search]), workers)
    assert parallel == _serial[search]


def test_parallel_explore_finds_seeded_bug_and_dedupes(tmp_path):
    # The violation, its replay verdict and its flight-recorder dump are
    # the serial search's own; a worker's recorder stays in the worker,
    # so the dump comes from re-executing the prefix here.
    dumps = {}
    for workers in (1, 2):
        out = tmp_path / ("w%d" % workers)
        result = Explorer(small_config(
            depth=4, max_schedules=64, max_violations=1,
            leader_factory=_QUORUM_SKIP, recorder_dir=str(out),
        )).run(workers=workers)
        assert result.violations, "seeded bug must be found"
        assert result.violations[0].confirmed
        assert result.violations[0].flight_path == str(
            out / "violation-0.flight.jsonl"
        )
        dumps[workers] = (out / "violation-0.flight.jsonl").read_bytes()
    assert dumps[1] == dumps[2]


def test_parallel_explore_rejects_zero_workers():
    with pytest.raises(ValueError):
        Explorer(small_config()).run(workers=0)


def test_divergent_replay_in_a_worker_stops_the_search(monkeypatch):
    # A worker's scripted decisions diverge: booted or resumed from an
    # image, an execution meets its scripted prefix in Chooser.next.
    parent = os.getpid()
    scripted = Chooser.next

    def diverges_in_workers(self, arity, label=None):
        if os.getpid() != parent and len(self.taken) < len(self.prefix):
            raise DivergentReplayError("prefix %r diverged" % (self.prefix,))
        return scripted(self, arity, label)

    monkeypatch.setattr(Chooser, "next", diverges_in_workers)
    with pytest.raises(DivergentReplayError):
        Explorer(small_config()).run(workers=2)
    assert multiprocessing.active_children() == []
