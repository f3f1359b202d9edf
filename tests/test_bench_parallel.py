"""Tests for ``repro campaign --workers``: campaign seeds on a process pool.

The contract under test is that the worker count changes wall-clock
only: campaign reports are **byte-identical** for every worker count.
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
from repro.common.pool import partition_items


def small_campaign(workers):
    return run_adversarial_campaign(
        range(3), steps=3, workers=workers,
    )


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
