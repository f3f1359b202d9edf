"""Flight recorder: ring bounds, capture postures, black-box dumps.

The headline contract this file pins: with tracing fully *off*, a
fixed-seed run that trips a seeded protocol bug still ships a
schema-valid flight-recorder dump, and replaying the same schedule
reproduces that dump byte-for-byte — through the stock replay path
(``replay_schedule``) and the explorer path (``ExplorerConfig
.recorder_dir``) alike.
"""

import importlib.util
import io
import json
import pathlib

import pytest

from repro.harness import Cluster, ClusterConfig, replay_schedule
from repro.harness.buggy import SEEDED_BUGS
from repro.mc import explore_schedules
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer, load_jsonl


def _load_validator():
    """Import scripts/validate_trace.py (not a package) by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" \
        / "validate_trace.py"
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _validate(path):
    validator = _load_validator()
    with open(path, "r", encoding="utf-8") as handle:
        return validator.validate(handle)


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------

def test_capture_posture_is_validated():
    with pytest.raises(ValueError):
        FlightRecorder(capture="everything")


def test_default_posture_is_control_plane_only():
    recorder = FlightRecorder()
    assert recorder.capture == "control"
    # The hint guarded hot call sites check: they skip the recorder
    # exactly as they skip NULL_TRACER.
    assert recorder.active is False
    assert FlightRecorder(capture="all").active is True


def test_control_posture_still_records_unguarded_emits():
    # Rare control-plane kinds call emit() without consulting .active;
    # the black box is built from exactly that seam.
    recorder = FlightRecorder()
    recorder.emit("election.start", node=0, round=1)
    assert [event.kind for event in recorder.events] == ["election.start"]


def test_ring_is_bounded_per_node():
    recorder = FlightRecorder(capacity=4)
    for k in range(10):
        recorder.emit("peer.state", node=0, state="s%d" % k)
    for k in range(3):
        recorder.emit("peer.state", node=1, state="s%d" % k)
    assert recorder.recorded == 13
    assert recorder.dropped == 6  # node 0 overflowed, node 1 did not
    retained = recorder.snapshot()
    assert len(retained) == 7
    assert [e.fields["state"] for e in retained if e.node == 0] == [
        "s6", "s7", "s8", "s9"
    ]
    assert [e.fields["state"] for e in retained if e.node == 1] == [
        "s0", "s1", "s2"
    ]


def test_snapshot_merges_rings_in_emission_order():
    recorder = FlightRecorder(capacity=8)
    order = [(0, "a"), (1, "b"), (None, "c"), (0, "d"), (1, "e")]
    for node, tag in order:
        recorder.emit("peer.state", node=node, state=tag)
    assert [(e.node, e.fields["state"]) for e in recorder.snapshot()] \
        == order


def test_events_property_is_derived_and_clearable():
    recorder = FlightRecorder(capacity=4)
    recorder.emit("election.start", node=0, round=1)
    assert len(recorder.events) == 1
    # Tracer.clear() assigns events = []; the setter resets the rings.
    recorder.clear()
    assert recorder.events == []
    assert recorder.recorded == 0
    with pytest.raises(AttributeError):
        recorder.events = [object()]


def test_kind_filters_and_sampling_apply_before_the_ring():
    recorder = FlightRecorder(capacity=8, kinds={"election."})
    recorder.emit("election.start", node=0, round=1)
    recorder.emit("peer.state", node=0, state="looking")
    assert [event.kind for event in recorder.events] == ["election.start"]
    # Filtered events never consume ring space or the recorded count.
    assert recorder.recorded == 1


def test_recorder_rides_a_tracer_observer_feed():
    tracer = Tracer()
    tracer.disable("net.")
    recorder = FlightRecorder(capacity=2)
    tracer.add_observer(recorder.record_event)
    tracer.emit("net.send", node=0, msg_id=1)      # filtered upstream
    tracer.emit("peer.state", node=0, state="a")
    tracer.emit("peer.state", node=0, state="b")
    tracer.emit("peer.state", node=0, state="c")
    # The recorder sees exactly the tracer's post-filter stream, and
    # its own bound still applies.
    assert [e.fields["state"] for e in recorder.events] == ["b", "c"]
    assert recorder.recorded == 3


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------

def test_dump_appends_marker_with_accounting(tmp_path):
    recorder = FlightRecorder(capacity=2)
    for k in range(5):
        recorder.emit("peer.state", node=0, state="s%d" % k)
    path = tmp_path / "flight.jsonl"
    lines = recorder.dump(str(path), reason="unit_test", extra=42)
    assert lines == 3  # two retained events + the marker
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    marker = records[-1]
    assert marker["kind"] == "recorder.dump"
    assert marker["node"] is None
    assert marker["fields"] == {
        "reason": "unit_test", "retained": 2, "dropped": 3,
        "capacity": 2, "extra": 42,
    }
    # The dump round-trips through the ordinary trace loader.
    events = load_jsonl(str(path))
    assert [event.kind for event in events][-1] == "recorder.dump"


def test_dump_of_empty_recorder_is_marker_only(tmp_path):
    path = tmp_path / "flight.jsonl"
    assert FlightRecorder().dump(str(path)) == 1
    (record,) = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert record["kind"] == "recorder.dump"
    assert record["fields"]["retained"] == 0


def test_dump_accepts_file_handles():
    recorder = FlightRecorder()
    recorder.emit("election.start", node=0, round=1)
    buffer = io.StringIO()
    assert recorder.dump(buffer, reason="handle") == 2
    assert '"recorder.dump"' in buffer.getvalue()


# ---------------------------------------------------------------------------
# Cluster wiring
# ---------------------------------------------------------------------------

def test_cluster_arms_the_black_box_by_default():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0)).start()
    cluster.run_until_stable(timeout=30.0)
    for k in range(5):
        cluster.submit_and_wait(("put", "k%d" % k, k))
    recorder = cluster.recorder
    assert isinstance(recorder, FlightRecorder)
    # Without an explicit tracer the recorder *is* the tracer.
    assert cluster.tracer is recorder
    kinds = {event.kind for event in recorder.events}
    # Control-plane tail is there...
    assert any(kind.startswith("election.") for kind in kinds)
    assert "peer.state" in kinds
    # ...but the guarded hot path never reached the ring: steady-state
    # cost stays at one attribute check per hot event.
    assert not any(kind.startswith("net.") for kind in kinds)
    assert "leader.propose" not in kinds
    assert "log.append" not in kinds


def test_recorder_false_disables_the_black_box():
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0, recorder=False))
    assert cluster.recorder is None


def test_explicit_tracer_and_recorder_ride_together():
    tracer = Tracer()
    tracer.disable("net.")
    recorder = FlightRecorder(capacity=64)
    cluster = Cluster(ClusterConfig(
        n_voters=3, seed=0, tracer=tracer, recorder=recorder,
    )).start()
    cluster.run_until_stable(timeout=30.0)
    cluster.submit_and_wait(("put", "k", "v"))
    assert cluster.tracer is tracer
    # Riding the observer feed, the recorder retains the tail of the
    # tracer's recorded (post-filter) stream — full fidelity here.
    kinds = {event.kind for event in recorder.events}
    assert "leader.propose" in kinds or "peer.commit" in kinds
    assert not any(kind.startswith("net.") for kind in kinds)


def test_dump_flight_writes_into_directory(tmp_path):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0)).start()
    cluster.run_until_stable(timeout=30.0)
    out = tmp_path / "nested" / "dir"
    path = cluster.dump_flight(str(out), reason="manual_test")
    assert path == str(out / "flight.jsonl")
    counts = _validate(path)
    assert counts["recorder.dump"] == 1
    # None disables; so does a recorder-less cluster.
    assert cluster.dump_flight(None, reason="x") is None
    bare = Cluster(ClusterConfig(n_voters=3, seed=0, recorder=False))
    assert bare.dump_flight(str(tmp_path), reason="x") is None


def test_assert_properties_does_not_dump_on_a_clean_run(tmp_path):
    cluster = Cluster(ClusterConfig(n_voters=3, seed=0)).start()
    cluster.run_until_stable(timeout=30.0)
    cluster.submit_and_wait(("put", "k", "v"))
    cluster.assert_properties(recorder_dir=str(tmp_path))
    assert not (tmp_path / "flight.jsonl").exists()


# ---------------------------------------------------------------------------
# Dump-on-violation: the acceptance path
# ---------------------------------------------------------------------------

def _replay_buggy(out_dir):
    bug = SEEDED_BUGS["quorum_skip"]
    result = replay_schedule(
        bug.canonical_schedule(),
        ClusterConfig(leader_factory=bug.factory),
        recorder_dir=str(out_dir),
    )
    assert not result.ok, "seeded bug did not trip the checker"
    return out_dir / "flight.jsonl"


def test_replay_violation_ships_a_valid_black_box(tmp_path):
    # Tracing is fully off here (no tracer configured): the always-on
    # recorder alone must produce the dump.
    path = _replay_buggy(tmp_path)
    counts = _validate(str(path))
    assert counts.pop("recorder.dump") == 1
    assert counts, "black box carried no events"
    records = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    marker = records[-1]
    assert marker["fields"]["reason"] == "replay_violation"
    # The violation signature rides along for triage.
    assert marker["fields"]["signature"]


def test_replay_black_box_is_byte_identical_across_replays(tmp_path):
    first = _replay_buggy(tmp_path / "a").read_bytes()
    second = _replay_buggy(tmp_path / "b").read_bytes()
    assert first == second


def test_explorer_violation_ships_a_deterministic_black_box(tmp_path):
    bug = SEEDED_BUGS["quorum_skip"]

    def explore(out_dir):
        result = explore_schedules(
            peers=3, depth=4, leader_factory=bug.factory,
            max_violations=1, recorder_dir=str(out_dir),
        )
        assert result.violations, "explorer missed the seeded bug"
        violation = result.violations[0]
        path = pathlib.Path(out_dir) / "violation-0.flight.jsonl"
        assert violation.flight_path == str(path)
        assert violation.to_json()["flight_path"] == str(path)
        return path

    path = explore(tmp_path / "a")
    counts = _validate(str(path))
    assert counts["recorder.dump"] == 1
    marker = json.loads(path.read_text().splitlines()[-1])
    assert marker["fields"]["reason"] == "explorer_violation"
    # Same scope, same seed: the black box is bit-reproducible.
    second = explore(tmp_path / "b")
    assert path.read_bytes() == second.read_bytes()
