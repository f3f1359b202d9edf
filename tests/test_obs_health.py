"""Tests for the health layer: the detector engine (hysteresis, crash
precedence, leader detectors read off the phase spans, recovery dip),
SLO accounting, and the two canned scenarios behind ``repro health``."""

import json

import pytest

from repro.bench.runner import EVAL_LINK
from repro.common.errors import ConfigError
from repro.harness import ClusterConfig
from repro.obs import TraceEvent
from repro.obs.health import (
    HealthMonitor,
    Slo,
    render_health,
    run_health_check,
)


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------

def test_slo_burn_rate_is_budget_normalised():
    slo = Slo("commit_p99", target=0.05, budget=0.10)
    for _ in range(18):
        slo.record(True)
    slo.record(False)
    slo.record(False)
    summary = slo.summary()
    assert summary["windows"] == 20
    assert summary["bad_fraction"] == pytest.approx(0.10)
    assert summary["burn_rate"] == pytest.approx(1.0)
    assert summary["ok"]                  # exactly on budget is still ok
    slo.record(False)
    assert not slo.summary()["ok"]
    with pytest.raises(ConfigError):
        Slo("bad", target=1.0, budget=0.0)


# ---------------------------------------------------------------------------
# Windowed detectors: hysteresis at window boundaries
# ---------------------------------------------------------------------------

LEADER = 5


def _ack_window(t_mid, lags):
    """One leader.ack event per ``{src: lag}`` at time *t_mid*."""
    return [
        TraceEvent(t_mid, LEADER, "leader.ack",
                   {"zxid": [1, 1], "src": src, "lag": lag})
        for src, lag in sorted(lags.items())
    ]


def _monitor(**kwargs):
    kwargs.setdefault("window", 1.0)
    monitor = HealthMonitor(**kwargs)
    # Anchor window 0 at t=0 so boundaries land on integers.
    monitor.observe(
        TraceEvent(0.0, LEADER, "leader.established", {"epoch": 1})
    )
    return monitor


GOOD = {1: 0.001, 2: 0.001, 3: 0.001}
BAD = {1: 0.001, 2: 0.001, 3: 0.100}


def test_one_bad_window_does_not_fire():
    monitor = _monitor()
    events = (
        _ack_window(0.5, GOOD) + _ack_window(1.5, BAD)
        + _ack_window(2.5, GOOD) + _ack_window(3.5, GOOD)
    )
    monitor.feed(events).finish(4.0)
    assert [f for f in monitor.firings
            if f["detector"] == "straggler"] == []
    assert monitor.healthy


def test_two_bad_windows_fire_with_backdated_onset():
    monitor = _monitor()
    events = _ack_window(0.5, GOOD)
    for t_mid in (1.5, 2.5):
        events += _ack_window(t_mid, BAD)
    monitor.feed(events).finish(3.0)
    (firing,) = [f for f in monitor.firings
                 if f["detector"] == "straggler"]
    assert firing["node"] == 3
    # Onset is the *start* of the first bad window, not the window
    # whose close tipped the streak over fire_after.
    assert firing["onset"] == pytest.approx(1.0)
    assert firing["clear"] is None
    assert firing["value"] == pytest.approx(0.100)
    assert firing["threshold"] == pytest.approx(0.004)
    assert not monitor.healthy
    assert monitor.active()[0]["node"] == 3


def test_firing_clears_after_clear_after_good_windows():
    monitor = _monitor()
    events = []
    for t_mid in (0.5, 1.5):
        events += _ack_window(t_mid, BAD)
    # One good window must NOT clear; the second one does.
    events += _ack_window(2.5, GOOD)
    events += _ack_window(3.5, GOOD)
    monitor.feed(events)
    monitor.finish(4.0)
    (firing,) = [f for f in monitor.firings
                 if f["detector"] == "straggler"]
    # Cleared at the *end* of the second consecutive good window.
    assert firing["clear"] == pytest.approx(4.0)
    assert monitor.healthy


def test_no_data_windows_freeze_streaks():
    monitor = _monitor()
    events = _ack_window(0.5, BAD)
    # Window [1, 2) has no ACK samples at all: the streak must freeze
    # (neither firing nor resetting), so the next bad window fires.
    events.append(TraceEvent(1.5, LEADER, "peer.commit",
                             {"zxid": [1, 9]}))
    events += _ack_window(2.5, BAD)
    monitor.feed(events).finish(3.0)
    (firing,) = [f for f in monitor.firings
                 if f["detector"] == "straggler"]
    assert firing["onset"] == pytest.approx(0.0)


def test_fewer_than_three_reporting_nodes_is_no_data():
    monitor = _monitor()
    events = []
    for t_mid in (0.5, 1.5, 2.5):
        events += _ack_window(t_mid, {1: 0.001, 3: 0.5})
    monitor.feed(events).finish(3.0)
    # Two reporting nodes cannot form a quorum baseline: every window
    # is no-data, so even a wild outlier never fires.
    assert monitor.firings == []


def test_crash_supersedes_gray_failure_firing():
    monitor = _monitor()
    events = []
    for t_mid in (0.5, 1.5):
        events += _ack_window(t_mid, BAD)
    events.append(TraceEvent(2.25, 3, "fault.crash", {}))
    monitor.feed(events).finish(3.0)
    (firing,) = [f for f in monitor.firings
                 if f["detector"] == "straggler"]
    assert firing["clear"] == pytest.approx(2.25)
    assert firing["cleared_by"] == "crash"
    assert monitor.healthy


def test_disk_stall_judges_log_durable_waits():
    monitor = _monitor(window=1.0)
    events = []
    for t_mid in (0.5, 1.5):
        for node, wait in ((1, 0.0005), (2, 0.0005), (3, 0.05)):
            events.append(TraceEvent(t_mid, node, "log.durable",
                                     {"zxid": [1, 1], "wait": wait}))
    monitor.feed(events).finish(2.0)
    (firing,) = [f for f in monitor.firings
                 if f["detector"] == "disk_stall"]
    assert firing["node"] == 3 and firing["onset"] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Event-driven detectors: leader availability and the recovery dip
# ---------------------------------------------------------------------------

def _dip_prefix():
    return [
        TraceEvent(0.0, 1, "election.start", {"round": 1}),
        TraceEvent(0.2, 3, "leader.established", {"epoch": 1}),
        TraceEvent(0.4, 3, "peer.commit", {"zxid": [1, 1]}),
        TraceEvent(0.5, 1, "peer.commit", {"zxid": [1, 1]}),
        TraceEvent(2.0, 3, "fault.crash", {"was_leader": True}),
    ]


def test_recovery_dip_clears_only_on_next_epoch_commit():
    monitor = HealthMonitor(window=1.0)
    events = _dip_prefix() + [
        # A straggling old-epoch commit does NOT restore service.
        TraceEvent(2.1, 2, "peer.commit", {"zxid": [1, 1]}),
        TraceEvent(2.5, 2, "leader.established", {"epoch": 2}),
        TraceEvent(2.8, 2, "peer.commit", {"zxid": [2, 1]}),
    ]
    monitor.feed(events).finish(3.0)
    (dip,) = [f for f in monitor.firings
              if f["detector"] == "recovery_dip"]
    assert dip["onset"] == pytest.approx(2.0)
    assert dip["clear"] == pytest.approx(2.8)
    assert dip["epoch_lost"] == 1 and dip["epoch_cleared"] == 2
    assert monitor.healthy


def test_recovery_dip_needs_prior_commits():
    monitor = HealthMonitor(window=1.0)
    events = [
        TraceEvent(0.0, 3, "leader.established", {"epoch": 1}),
        TraceEvent(0.5, 3, "fault.crash", {"was_leader": True}),
    ]
    monitor.feed(events).finish(1.0)
    assert [f for f in monitor.firings
            if f["detector"] == "recovery_dip"] == []
    # But the leader loss itself is tracked.
    (unavail,) = [f for f in monitor.firings
                  if f["detector"] == "leader_unavailable"]
    assert unavail["reason"] == "crash"
    assert unavail["clear"] is None
    assert not monitor.healthy


def test_availability_accounts_unavailable_spans():
    monitor = HealthMonitor(window=1.0)
    events = _dip_prefix() + [
        TraceEvent(4.0, 2, "leader.established", {"epoch": 2}),
        TraceEvent(4.5, 2, "peer.commit", {"zxid": [2, 1]}),
    ]
    monitor.feed(events).finish(10.0)
    slo = monitor.report_slos()["availability"]
    # Down 0.0-0.2 (initial election) and 2.0-4.0 (crash) out of 10s.
    assert slo["unavailable_s"] == pytest.approx(2.2)
    assert slo["availability"] == pytest.approx(0.78)
    assert not slo["ok"]
    # SLO burn is informational: no detector is firing at the end.
    assert monitor.healthy


def test_deposed_leader_via_peer_looking():
    monitor = HealthMonitor(window=1.0)
    events = [
        TraceEvent(0.0, 3, "leader.established", {"epoch": 1}),
        TraceEvent(1.0, 3, "peer.looking", {}),
    ]
    monitor.feed(events).finish(2.0)
    (unavail,) = monitor.firings
    assert unavail["reason"] == "deposed"
    assert monitor.spans[0]["lost"] == "deposed"


def test_election_without_a_leader_never_clears():
    monitor = HealthMonitor(window=1.0)
    events = [
        TraceEvent(0.5, 1, "election.start", {"round": 1}),
        TraceEvent(1.5, 2, "election.start", {"round": 1}),
    ]
    monitor.feed(events).finish(3.0)
    (unavail,) = monitor.firings
    assert unavail["reason"] == "election"
    assert unavail["onset"] == 0.5 and unavail["clear"] is None
    assert not monitor.healthy
    report = monitor.report()
    assert report["leader"] is None and report["epoch"] is None
    assert report["series"]["leader_present"]["cluster"]["max"] == 0.0


def test_dip_outlasts_an_epoch_lost_before_its_first_commit():
    monitor = HealthMonitor(window=1.0)
    events = [
        TraceEvent(0.0, 1, "election.start", {"round": 1}),
        TraceEvent(0.1, 3, "leader.established", {"epoch": 1}),
        TraceEvent(0.2, 3, "peer.commit", {"zxid": [1, 1]}),
        TraceEvent(1.0, 3, "fault.crash", {"was_leader": True}),
        TraceEvent(1.5, 2, "leader.established", {"epoch": 2}),
        # Epoch 2 is deposed before delivering anything: the dip that
        # epoch 1's crash opened stays open, and no second dip opens.
        TraceEvent(1.8, 2, "peer.looking", {}),
        TraceEvent(2.5, 1, "leader.established", {"epoch": 3}),
        TraceEvent(2.6, 4, "peer.commit", {"zxid": [3, 1]}),
        # Superseded, never lost: epoch 4 takes over from a live leader,
        # and the old leader going looking afterwards fires nothing.
        TraceEvent(3.0, 4, "leader.established", {"epoch": 4}),
        TraceEvent(3.5, 1, "peer.looking", {}),
    ]
    monitor.feed(events).finish(4.0)
    assert [
        (f["detector"], f["onset"], f["clear"], f.get("reason"))
        for f in monitor.firings
    ] == [
        ("leader_unavailable", 0.0, 0.1, "election"),
        ("leader_unavailable", 1.0, 1.5, "crash"),
        ("recovery_dip", 1.0, 2.6, None),
        ("leader_unavailable", 1.8, 2.5, "deposed"),
    ]
    (dip,) = [f for f in monitor.firings
              if f["detector"] == "recovery_dip"]
    assert dip["epoch_lost"] == 1 and dip["epoch_cleared"] == 3
    report = monitor.report()
    assert report["leader"] == 4 and report["epoch"] == 4
    assert monitor.healthy


def test_monitor_rejects_bad_config():
    with pytest.raises(ConfigError):
        HealthMonitor(window=0.0)


# ---------------------------------------------------------------------------
# Canned scenarios (live attach): the acceptance behaviors
# ---------------------------------------------------------------------------

#: `repro health`'s default ensemble: five voters, seed 3.
DRILL = ClusterConfig(n_voters=5, seed=3, net=EVAL_LINK)


@pytest.fixture(scope="module")
def crash_monitor():
    return run_health_check("crash-recovery", DRILL, rate=400)


@pytest.fixture(scope="module")
def slow_monitor():
    return run_health_check("slow-fsync", DRILL, rate=400)


def test_crash_recovery_has_exactly_one_dip(crash_monitor):
    dips = [f for f in crash_monitor.firings
            if f["detector"] == "recovery_dip"]
    assert len(dips) == 1
    (dip,) = dips
    crash = [f for f in crash_monitor.firings
             if f["detector"] == "leader_unavailable"
             and f.get("reason") == "crash"]
    # Onset is the leader crash; service restored by the next epoch.
    assert dip["onset"] == pytest.approx(crash[0]["onset"])
    assert dip["clear"] > dip["onset"]
    assert dip["epoch_cleared"] == dip["epoch_lost"] + 1
    assert crash_monitor.healthy
    # No gray-failure detector misfires on a fail-stop scenario.
    assert all(f["detector"] in ("recovery_dip", "leader_unavailable")
               for f in crash_monitor.firings)


def test_slow_fsync_fires_on_victim_only(slow_monitor):
    gray = [f for f in slow_monitor.firings
            if f["detector"] in ("straggler", "disk_stall")]
    assert gray
    victims = {f["node"] for f in gray}
    assert len(victims) == 1
    (victim,) = victims
    assert victim != slow_monitor.report()["leader"]
    for detector in ("straggler", "disk_stall"):
        (firing,) = [f for f in gray if f["detector"] == detector]
        # Onset at the slow_at fault (t=2.0), cleared after restore_at.
        assert firing["onset"] == pytest.approx(2.0, abs=0.5)
        assert firing["clear"] is not None and firing["clear"] > 6.0
    assert slow_monitor.healthy


def _firings(monitor):
    return [
        (f["detector"], f["node"], f["onset"], f["clear"])
        for f in monitor.firings
    ]


def test_crash_recovery_drill_is_pinned(crash_monitor):
    # Exact, not approximate: a one-window shift in any onset or clear
    # (e.g. from re-plumbing how the scenario is built) must fail here.
    assert _firings(crash_monitor) == [
        ("leader_unavailable", None, 0.0, 0.02159278715874012),
        ("leader_unavailable", None, 4.03, 4.343495975873996),
        ("recovery_dip", None, 4.03, 4.346217362202267),
    ]
    assert crash_monitor.summary()["verdict"] == "healthy"


def test_slow_fsync_drill_is_pinned(slow_monitor):
    assert _firings(slow_monitor) == [
        ("leader_unavailable", None, 0.0, 0.02159278715874012),
        ("straggler", 1, 2.0, 6.5),
        ("disk_stall", 1, 2.0, 6.5),
    ]
    assert slow_monitor.summary()["verdict"] == "healthy"


def test_crash_drill_epoch_outlives_follower_elections(crash_monitor):
    # Peers 1 and 5 recover at t=6.03 and run elections to rejoin.  That
    # does not end epoch 2: its leader delivers until the trace ends.
    first, second = crash_monitor.spans
    assert (first["epoch"], first["end"], first["lost"]) == (1, 4.03, "crash")
    assert (second["epoch"], second["leader"]) == (2, 4)
    assert second["lost"] is None
    assert second["end"] == 8.02888334510031      # the last event
    assert second["commits"] == 1482


def _replay_firings(schedule):
    from repro.harness.replay import replay_schedule

    firings = replay_schedule(schedule, health=True).health.firings
    return (
        [(f["detector"], f["node"], f["onset"], f["clear"], f.get("reason"))
         for f in firings],
        [(f["epoch_lost"], f["epoch_cleared"])
         for f in firings if f["detector"] == "recovery_dip"],
    )


def test_partition_replay_firings_are_pinned():
    # Epoch 1 is superseded (no firing); epochs 2-4 are each deposed.
    from repro.harness.schedule import ActionSchedule

    firings, dips = _replay_firings(
        ActionSchedule.generate_partitions(3, n_voters=3, steps=10)
    )
    assert firings == [
        ("leader_unavailable", None, 0.0, 0.021297399231831524,
         "election"),
        ("leader_unavailable", None, 2.2698157742361973,
         2.3416661773484813, "deposed"),
        ("recovery_dip", None, 2.2698157742361973, 2.350416315049018, None),
        ("leader_unavailable", None, 5.841666177348469, 5.92894684902105,
         "deposed"),
        ("recovery_dip", None, 5.841666177348469, 5.930494936330931, None),
        ("leader_unavailable", None, 6.678946849021047, 6.750835102599379,
         "deposed"),
        ("recovery_dip", None, 6.678946849021047, 6.760443178476827, None),
    ]
    assert dips == [(2, 3), (3, 4), (4, 5)]


def test_crash_replay_firings_are_pinned():
    # Epoch 1 is superseded (no firing); epoch 2's leader crashes.
    from repro.harness.schedule import ActionSchedule

    firings, dips = _replay_firings(
        ActionSchedule.generate(11, n_voters=3, steps=10)
    )
    assert firings == [
        ("leader_unavailable", None, 0.0, 0.02134584696901492, "election"),
        ("leader_unavailable", None, 4.58, 4.875386922658151, "crash"),
        ("recovery_dip", None, 4.58, 4.880452837642152, None),
    ]
    assert dips == [(2, 3)]


def test_health_report_is_byte_deterministic():
    def blob():
        monitor = run_health_check("crash-recovery", DRILL, rate=400,
                                   duration=6.0)
        return json.dumps(monitor.report(params={"seed": 3}),
                          sort_keys=True)
    assert blob() == blob()


def test_report_shape(crash_monitor):
    report = crash_monitor.report(params={"scenario": "crash-recovery"})
    assert report["schema"] == "repro-health/v1"
    assert report["schema_version"] == 1
    assert report["verdict"] == "healthy"
    assert report["voters"] == sorted(report["voters"])
    assert report["commits"] > 0
    assert report["windows"] >= 30        # ~8s of 0.25s windows
    assert report["active"] == []
    assert set(report["slos"]) == {"commit_p99", "availability"}
    assert "commit_rate" in report["series"]
    json.dumps(report)                    # JSON-safe throughout


def test_summary_digest(slow_monitor):
    digest = slow_monitor.summary()
    assert digest["verdict"] == "healthy"
    assert digest["firings"]["straggler"] == 1
    assert digest["firings"]["disk_stall"] == 1
    assert digest["active"] == []
    assert set(digest["slos"]) == {"commit_p99", "availability"}


def test_render_health_marks_lanes(crash_monitor, slow_monitor):
    out = render_health(crash_monitor)
    assert "verdict: healthy" in out
    assert "recovery_dip" in out
    # The no-leader mark outranks the dip mark in the cluster lane.
    assert "!" in out.splitlines()[3]
    out = render_health(slow_monitor)
    assert "S" in out and "D" in out
    assert "disk_stall" in out


def test_unknown_scenario_raises():
    with pytest.raises(ConfigError):
        run_health_check("meteor-strike", DRILL)
