"""Tests for the adversarial-campaign harness."""

from repro.bench.campaign import render_campaign, run_adversarial_campaign
from repro.harness import ClusterConfig


def test_small_campaign_all_pass():
    outcomes = run_adversarial_campaign(range(3), steps=6)
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert outcome.passed, (outcome.seed, outcome.violations,
                                outcome.error)
        assert outcome.deliveries > 0
        assert len(outcome.schedule)


def test_campaign_outcomes_carry_fault_history():
    outcomes = run_adversarial_campaign(
        [5], ClusterConfig(n_voters=5), steps=5
    )
    schedule = outcomes[0].schedule
    kinds = {action.kind for action in schedule}
    assert kinds <= {"crash", "recover", "partition", "heal"}
    assert len(schedule) == 5


def test_render_campaign_verdict_line():
    outcomes = run_adversarial_campaign(range(2), steps=4)
    text = render_campaign(outcomes)
    assert "ALL 2 RUNS PASSED" in text
    assert "seed" in text


def test_render_campaign_reports_failures():
    outcomes = run_adversarial_campaign([1], steps=4)
    outcomes[0].ok = False
    outcomes[0].violations = ["total_order"]
    text = render_campaign(outcomes)
    assert "FAIL" in text
    assert "1/1 RUNS FAILED" in text
    assert "total_order" in text
