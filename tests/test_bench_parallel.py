"""Tests for the scale-out drivers in ``repro.bench.parallel``.

The contract under test is the module's one invariant: merged reports
are **byte-identical** across worker counts — campaign JSON, explorer
summary JSON, and the rendered tables must not depend on how the work
was partitioned or which process ran it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.campaign import (
    campaign_report,
    render_campaign,
    run_adversarial_campaign,
    write_campaign_report,
)
from repro.bench.parallel import (
    parallel_explore,
    partition_items,
    run_parallel_campaign,
    split_explore_units,
)
from repro.mc import ExplorerConfig


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
    outcomes = run_parallel_campaign(range(5), workers=3, steps=3)
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
# Explorer
# ---------------------------------------------------------------------------

def test_explore_workers_byte_identical_summary():
    summaries = {}
    for workers in (1, 2, 4):
        result = parallel_explore(small_config(), workers=workers)
        summaries[workers] = json.dumps(result.to_json(), sort_keys=True)
    assert summaries[1] == summaries[2] == summaries[4]


def test_explore_subtree_units_cover_the_whole_search():
    # Up to depth 3 the serial explorer's run count equals the root run
    # plus every subtree's runs (deeper, per-unit visited maps cannot
    # prune across subtrees and the partitioned search runs more).  The
    # decomposition must never drift, so the counts are exact: seed 0,
    # 7 units; a state straddling two subtrees counts once in each.
    from repro.mc import Explorer

    serial = Explorer(small_config(depth=3)).run()
    parallel = parallel_explore(small_config(depth=3), workers=1)
    assert (serial.runs, serial.states_visited) == (36, 47)
    assert (len(parallel.unit_results), parallel.runs,
            parallel.states_visited) == (7, 36, 51)
    assert parallel.exhausted and serial.exhausted
    assert parallel.ok and serial.ok


def test_split_explore_units_are_disjoint_prefixes():
    root, units = split_explore_units(small_config())
    assert root.runs == 1
    assert units, "depth-2 search must branch at the root"
    seen = {tuple(unit) for unit in units}
    assert len(seen) == len(units)
    for one in seen:
        for other in seen:
            if one is other or len(one) > len(other):
                continue
            # No unit may be a prefix of another: subtrees are disjoint.
            assert not (one != other and other[:len(one)] == one)


def test_parallel_explore_units_carry_attribution_stamps():
    result = parallel_explore(small_config(), workers=2)
    rows = result.unit_rows()
    assert rows
    assert all(row["elapsed"] is not None for row in rows)
    assert {row["worker"] for row in rows} == {0, 1}
    # Stamps never leak into the canonical summary.
    blob = json.dumps(result.to_json())
    assert "elapsed" not in blob and "worker" not in blob


def test_parallel_explore_finds_seeded_bug_and_dedupes():
    from repro.harness.buggy import SEEDED_BUGS

    bug = SEEDED_BUGS["quorum_skip"]
    results = {}
    for workers in (1, 2):
        result = parallel_explore(ExplorerConfig(
            peers=3, depth=4, max_schedules=64, max_violations=1,
            leader_factory=bug.factory,
        ), workers=workers)
        assert result.violations, "seeded bug must be found"
        signatures = [v.signature for v in result.violations]
        assert len(set(signatures)) == len(signatures)
        assert result.violations[0].confirmed
        results[workers] = json.dumps(
            [v.to_json() for v in result.violations], sort_keys=True
        )
    assert results[1] == results[2]


def test_parallel_explore_rejects_zero_workers():
    with pytest.raises(ValueError):
        parallel_explore(small_config(), workers=0)
